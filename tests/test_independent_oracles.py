"""`splitspin idempotents` reports checked by the benchmark's oracles.

`perfbench/oracles.py` computes every expected value with plain int
arithmetic from the closed-form product and imports nothing from splitspin:
it counts the norm-one vectors itself, expects 3 + 2N idempotents (1 + N on
the cover), and squares each listed idempotent with its own product.  The
module is read and executed here, so importing it writes nothing under
`perfbench/`.
"""

import contextlib
import io
import json
import pathlib
import random
import types

import pytest

from splitspin.cli import main

ORACLES_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"


def _load_oracles():
    module = types.ModuleType("oracles")
    exec(compile(ORACLES_PATH.read_text(encoding="utf-8"), str(ORACLES_PATH), "exec"), module.__dict__)
    return module


oracles = _load_oracles()


def _grams(p, k):
    """The identity, a diagonal form with a non-square entry, and a seeded
    random symmetric form."""
    rng = random.Random(f"{p}/{k}")
    non_square = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)
    diagonal = [[non_square if i == j == 0 else int(i == j) for j in range(k)] for i in range(k)]
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = rng.randrange(p)
    return [[[int(i == j) for j in range(k)] for i in range(k)], diagonal, rows]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("variant", [oracles.SPLIT, oracles.COVER])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("p", [5, 7, 11])
def test_idempotents_report_passes_the_independent_oracle(p, k, variant):
    # alpha outside {0, 1, 1/2}, where the split spin factor is a Jordan algebra
    alphas = [a for a in range(p) if a not in (0, 1, (p + 1) // 2)] if variant == oracles.SPLIT else [-1]
    for gram in _grams(p, k):
        for alpha in alphas:
            argv = ["idempotents", "--gram", json.dumps([[str(x) for x in row] for row in gram]), "--p", str(p)]
            argv += ["--alpha=" + str(alpha)] if variant == oracles.SPLIT else ["--variant", "cover"]
            code, stdout = _run(argv)
            assert code == 0, (argv, stdout)
            params = {"command": "idempotents", "p": p, "gram": gram, "alpha": alpha, "variant": variant}
            oracles.check_job(params, stdout)
