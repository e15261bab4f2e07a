"""The package's source shrinks or stays flat: its modules together hold at
most LINE_BUDGET lines, counted as `wc -l src/splitspin/*.py` counts them.
A change that removes lines lowers the bound to the new total."""

import pathlib

import splitspin

LINE_BUDGET = 4493


def test_the_package_stays_within_its_line_budget():
    modules = sorted(pathlib.Path(splitspin.__file__).parent.glob("*.py"))
    total = sum(path.read_text(encoding="utf-8").count("\n") for path in modules)
    assert total <= LINE_BUDGET, f"src/splitspin/*.py holds {total} lines, over the budget of {LINE_BUDGET}"
