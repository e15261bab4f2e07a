"""`splitspin idempotents` reports and rho orders checked by the benchmark's
oracles.

`perfbench/oracles.py` computes every expected value with plain int
arithmetic from the closed-form product and imports nothing from splitspin:
it counts the norm-one vectors itself, expects 3 + 2N idempotents (1 + N on
the cover), squares each listed idempotent with its own product, and
powers the 2x2 matrix rho(mu) with its own products.  The
module is read and executed here, so importing it writes nothing under
`perfbench/`.

The closed-form count of norm-one vectors (Lidl & Niederreiter) is a second
oracle, on plain ints here: it checks the exhaustive norm-one search and,
through 3 + 2N and 1 + N, the idempotent scan.
"""

import contextlib
import io
import itertools
import json
import math
import pathlib
import random
import types
from fractions import Fraction

import pytest

from splitspin import Field, Matrix, QuadraticSpace, exceptional_cover, rho_order, split_spin
from splitspin.cli import main
from splitspin.idempotents import enumerate_idempotents_bruteforce

ORACLES_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"


def _load_oracles():
    module = types.ModuleType("oracles")
    exec(compile(ORACLES_PATH.read_text(encoding="utf-8"), str(ORACLES_PATH), "exec"), module.__dict__)
    return module


oracles = _load_oracles()

# the scan covers p ** (dim E + 2) vectors: dim E = 2 up to p = 31, dim E = 3 up to p = 13
SCAN_VECTORS = 1_000_000


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


# -- the closed-form count of norm-one vectors ---------------------------------------


def _legendre(a, p):
    a %= p
    return 0 if a == 0 else (1 if pow(a, (p - 1) // 2, p) == 1 else -1)


def _diagonal_form(gram, p):
    """The diagonal of a form congruent to gram over F_p, p odd: symmetric
    elimination on plain ints, each row operation followed by the same
    column operation."""
    g = [[x % p for x in row] for row in gram]
    n = len(g)
    diagonal = []
    for k in range(n):
        pivot = next((i for i in range(k, n) if g[i][i]), None)
        if pivot is None:
            pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if g[i][j]), None)
            if pair is None:
                return diagonal + [0] * (n - k)
            i, j = pair  # b_i <- b_i + b_j makes g_ii = 2 g_ij, nonzero for odd p
            for t in range(n):
                g[i][t] = (g[i][t] + g[j][t]) % p
            for t in range(n):
                g[t][i] = (g[t][i] + g[t][j]) % p
            pivot = i
        g[k], g[pivot] = g[pivot], g[k]
        for row in g:
            row[k], row[pivot] = row[pivot], row[k]
        inverse = pow(g[k][k], -1, p)
        for i in range(k + 1, n):
            f = g[i][k] * inverse % p
            for t in range(n):
                g[i][t] = (g[i][t] - f * g[k][t]) % p
            for t in range(n):
                g[t][i] = (g[t][i] - f * g[t][k]) % p
        diagonal.append(g[k][k])
    return diagonal


def closed_form_norm_one_count(gram, p):
    """The number of x in F_p^n with x^T G x = 1, p odd.

    A nondegenerate form of dimension m and determinant D has
    p^(m-1) + p^((m-1)/2) eta((-1)^((m-1)/2) D) such vectors for m odd and
    p^(m-1) - p^((m-2)/2) eta((-1)^(m/2) D) for m even, with eta the
    Legendre symbol (Lidl & Niederreiter, *Finite Fields*, Theorems
    6.26-6.27).  A degenerate form has p^(dim radical) times the count of
    a nondegenerate complement, here read off a congruent diagonal form."""
    nonzero = [d for d in _diagonal_form(gram, p) if d]
    m, radical = len(nonzero), len(gram) - len(nonzero)
    if m == 0:
        return 0
    det = math.prod(nonzero)
    if m % 2:
        count = p ** (m - 1) + p ** ((m - 1) // 2) * _legendre((-1) ** ((m - 1) // 2) * det, p)
    else:
        count = p ** (m - 1) - p ** ((m - 2) // 2) * _legendre((-1) ** (m // 2) * det, p)
    return p**radical * count


def _seeded_grams(p, k, seed):
    """Two seeded random symmetric forms, one forced degenerate (its last
    basis vector a multiple of its first), and the zero form."""
    rng = random.Random(f"closed-form/{p}/{k}/{seed}")
    out = []
    for _ in range(2):
        rows = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                rows[i][j] = rows[j][i] = rng.randrange(p)
        out.append(rows)
    # b_last <- c b_0: G_last,j = c G_0,j and G_last,last = c^2 G_0,0
    degenerate, c = [row[:] for row in out[0]], rng.randrange(p)
    for j in range(k):
        degenerate[k - 1][j] = degenerate[j][k - 1] = c * out[0][0][j] % p
    degenerate[k - 1][k - 1] = c * c * out[0][0][0] % p
    return out + [degenerate, [[0] * k for _ in range(k)]]


ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_closed_form_norm_one_count_matches_brute_force(p):
    for m in (1, 2, 3):
        for seed in range(3):
            for gram in _seeded_grams(p, m, seed):
                brute = sum(
                    1 for x in itertools.product(range(p), repeat=m)
                    if sum(x[i] * gram[i][j] * x[j] for i in range(m) for j in range(m)) % p == 1
                )
                assert closed_form_norm_one_count(gram, p) == brute, (p, gram)


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_norm_one_search_and_scan_match_the_closed_form(p):
    """The exhaustive norm-one search finds N vectors, N the closed form;
    the scan finds 3 + 2N nonzero idempotents on the split spin factor
    and 1 + N on the cover, both with alpha outside {0, 1, 1/2}.  At p = 3
    no alpha qualifies, and the cover's alpha -1 is 1/2."""
    field = Field.prime(p)
    rng = random.Random(f"scan/{p}")
    alphas = [a for a in range(p) if a not in (0, 1, (p + 1) // 2)]
    for k in (1, 2, 3):
        for gram in _seeded_grams(p, k, 0):
            expected = closed_form_norm_one_count(gram, p)
            space = QuadraticSpace(Matrix(field, gram))
            search = space.find_norm_one(budget=p**k)
            assert search.status == "exhaustive" and len(search.vectors) == expected, (p, gram)
            if p ** (k + 2) > SCAN_VECTORS or not alphas:
                continue
            cover = enumerate_idempotents_bruteforce(exceptional_cover(space), budget=SCAN_VECTORS)
            assert len(cover) == 1 + expected, (p, gram)
            algebra = split_spin(space, field.scalar(rng.choice(alphas)))
            assert len(enumerate_idempotents_bruteforce(algebra, budget=SCAN_VECTORS)) == 3 + 2 * expected, (p, gram)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 10007])
def test_rho_order_matches_the_independent_oracle(p):
    """rho_order against the oracle's plain 2x2 powering: every mu at the
    primes up to 31, and every 97th mu together with mu = +-1 at 10007."""
    field = Field.prime(p)
    for mu in range(p) if p < 100 else [*range(0, p, 97), 1, p - 1]:
        order = rho_order(field, mu)
        assert order.is_finite and order.order == oracles.rho_order(mu, p), (p, mu)


# -- Frobenius forms and structure constants against the closed form ----------------


Q_GRAMS = ([[1, 0], [0, 1]], [[1, 1], [1, 1]], [[Fraction(1, 2), 1, 0], [1, -2, Fraction(1, 3)], [0, Fraction(1, 3), 5]])


def _frobenius_cases():
    """(p, gram, alpha, variant): dim E 1-3 over F_5, F_7 and F_11 on the
    grams of `_grams`, every alpha outside {0, 1, 1/2} (among them -1 and 2,
    where the form has rank one), and a few Grams over Q."""
    for p in (5, 7, 11):
        for k in (1, 2, 3):
            for gram in _grams(p, k):
                yield p, gram, None, oracles.COVER
                for alpha in (a for a in range(p) if a not in (0, 1, (p + 1) // 2)):
                    yield p, gram, alpha, oracles.SPLIT
    for gram in Q_GRAMS:
        yield None, gram, None, oracles.COVER
        for alpha in (3, Fraction(5, 3), -1, 2):
            yield None, gram, alpha, oracles.SPLIT


@pytest.mark.parametrize("command", ["frobenius", "build"])
def test_frobenius_and_build_reports_pass_the_independent_oracle(command):
    """`check_job` compares the Frobenius Gram matrix with the closed form,
    checks that it associates with the emitted (or closed-form) products on
    every basis triple, and checks the reported rank and radical."""
    for p, gram, alpha, variant in _frobenius_cases():
        argv = [command, "--gram", json.dumps([[str(x) for x in row] for row in gram])]
        argv += ["--p", str(p)] if p else []
        argv += ["--alpha=" + str(alpha)] if variant == oracles.SPLIT else ["--variant", "cover"]
        code, stdout = _run(argv)
        assert code == 0, (argv, stdout)
        params = {"command": command, "p": p, "gram": gram, "alpha": alpha, "variant": variant}
        oracles.check_job(params, stdout)
