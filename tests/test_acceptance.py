"""Acceptance criteria, one test per criterion, all exact with zero
tolerance.  Each test prints a PASS line so -s or failure output shows the
per-criterion verdict; `splitspin selftest` runs the same registry."""

import pytest

from splitspin.acceptance import CRITERIA


@pytest.mark.parametrize(
    "number, description, criterion",
    CRITERIA,
    ids=[f"criterion_{number:02d}" for number, _, _ in CRITERIA],
)
def test_acceptance(number, description, criterion):
    criterion()
    print(f"PASS criterion {number}: {description}")


def test_selftest_reports_every_criterion_when_the_algebra_is_broken(monkeypatch, capsys):
    """A split spin table whose z2 coefficient of e f is doubled makes some
    criteria fail with a typed error; selftest still reports all eleven and
    exits 1."""
    import splitspin.acceptance
    import splitspin.algebra
    import splitspin.cli
    import splitspin.cover
    import splitspin.two_gen
    from splitspin.algebra import Algebra
    from splitspin.cli import main

    original = splitspin.algebra.split_spin

    def broken_split_spin(space, alpha):
        good = original(space, alpha)
        k = space.dim
        constants = [(i, j, t, c * 2 if j < k and t == k + 1 else c)
                     for i, j, t, c in good.constants]
        return Algebra(good.field, good.labels, constants, good.meta)

    for module in (splitspin.algebra, splitspin.acceptance, splitspin.cli,
                   splitspin.cover, splitspin.two_gen):
        monkeypatch.setattr(module, "split_spin", broken_split_spin)
    code = main(["selftest"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split(":")[0].split()[-1] for line in lines] == [str(n) for n, _, _ in CRITERIA]
    assert all(line.startswith(("PASS criterion", "FAIL criterion")) for line in lines)
    assert any(line.startswith("FAIL") for line in lines)
