"""Job lists for the four workloads.

A job is one call of a splitspin entry point: ``splitspin.cli.main(argv)``
or, for ``rho_order``, the library function as ``scripts/axet_sweep.py``
calls it.  Each workload is a fixed multiset of job *shapes* (command,
dim E, field, |X|), and a round runs every shape once.  ``jobs(workload,
seed, round_no)`` returns one round.

The content of a round (Gram entries, alpha over F_p, mu) is drawn from a
generator seeded by the workload alone, so every round holds the same jobs;
``seed`` and the round number set the order in which they run.  A run of R
rounds therefore times R copies of one multiset of jobs, for every seed and
every R.  Over Q a job's cost depends on its Gram matrix: when the content
was drawn per seed, the 90th percentile of verify_q moved by a fifth from
one seed to the next, more than the host's own noise.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from oracles import COVER, SPLIT, rank, rho_order

P_VERIFY = 10007

# Each round has 25 or 15 jobs, one per shape.  With J jobs per round (J = 5
# mod 10) and R rounds, the median and the 90th percentile of the R * J job
# times fall in the middle of the R copies of one shape, never on the step
# between two shapes.

# (command, dim E).  Cheap commands (build, radical) run at fewer dimensions
# than the heavy ones, so the median lands among the many mid-sized
# axis-check/cover/frobenius jobs.
VERIFY_SHAPES = (
    [("build", k) for k in (4, 6, 8, 10)]
    + [("radical", k) for k in (5, 7, 9)]
    + [("frobenius", k) for k in range(4, 11)]
    + [("axis-check", k) for k in range(4, 10)]
    + [("cover", k) for k in range(4, 9)]
)

# (variant, dim E, p); p ** (dim E + 2) vectors are scanned.
SCAN_SHAPES = (
    [(SPLIT, 1, p) for p in (29, 31, 37, 41)] + [(SPLIT, 2, 11), (SPLIT, 2, 13), (SPLIT, 3, 7), (SPLIT, 4, 5)]
    + [(COVER, 1, p) for p in (29, 31, 37)] + [(COVER, 2, 11), (COVER, 2, 13), (COVER, 3, 7), (COVER, 4, 5)]
)

# ("axet", p, |X|) or ("rho_order", p, order).  mu is drawn among the values
# whose rho matrix has exactly that order, so the shape fixes |X| and with
# it the O(|X|^2) closure cost.  rho_order's cost grows with the order, and
# the three shapes of order ~10^4 cost the same, so the 90th percentile
# (shape rank 22.5 of 25) falls in the middle of their copies rather than
# next to the step up to the next-dearest shape.
ORBIT_SHAPES = (
    [("axet", 101, n) for n in (20, 25, 34, 50, 51, 100, 102)]
    + [("axet", 211, n) for n in (30, 35, 42, 53, 70, 105, 106)]
    + [("axet", 401, n) for n in (40, 50, 67, 80, 100, 200)]
    + [("rho_order", 10007, n) for n in (5003, 5004, 10006, 10008, 10008)]
)

WORKLOADS = ("verify_q", "verify_fp", "scan", "orbit")
ROUND_JOBS = {"verify_q": len(VERIFY_SHAPES), "verify_fp": len(VERIFY_SHAPES),
              "scan": len(SCAN_SHAPES), "orbit": len(ORBIT_SHAPES)}


@dataclass(frozen=True)
class Job:
    kind: str  # "cli" or "rho_order"
    argv: tuple
    params: dict  # the inputs the output checks need
    shape: int = -1  # index of the job's shape in its workload


def jobs(workload: str, seed: int, round_no: int) -> list[Job]:
    rng = random.Random(workload)
    if workload in ("verify_q", "verify_fp"):
        p = None if workload == "verify_q" else P_VERIFY
        out = [_verify_job(rng, i, command, k, p) for i, (command, k) in enumerate(VERIFY_SHAPES)]
    elif workload == "scan":
        out = [_scan_job(rng, variant, k, p) for variant, k, p in SCAN_SHAPES]
    elif workload == "orbit":
        out = [_orbit_job(rng, kind, p, order) for kind, p, order in ORBIT_SHAPES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out = [dataclasses.replace(job, shape=index) for index, job in enumerate(out)]
    random.Random(f"{workload}/{round_no}/{seed}").shuffle(out)
    return out


def _scalar_text(value) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def random_gram(rng: random.Random, k: int, nullity: int, p) -> list[list[int]]:
    """A symmetric integer Gram matrix of rank k - nullity over Q or F_p.

    The non-degenerate block has square diagonal entries (1 or 4), so scaled
    basis vectors give norm-one witnesses; in the degenerate case one
    radical vector is mixed with a non-radical one so the radical is not
    spanned by basis vectors alone.
    """
    m = k - nullity
    while True:
        block = [[0] * m for _ in range(m)]
        for i in range(m):
            block[i][i] = rng.choice((1, 4))
            for j in range(i + 1, m):
                block[i][j] = block[j][i] = rng.randint(-2, 2)
        if rank([[Fraction(x) if p is None else x % p for x in row] for row in block], p) == m:
            break
    where = sorted(rng.sample(range(k), m))
    gram = [[0] * k for _ in range(k)]
    for a, i in enumerate(where):
        for b, j in enumerate(where):
            gram[i][j] = block[a][b]
    if nullity:
        r = rng.choice([i for i in range(k) if i not in where])
        s = rng.choice(where)
        # new basis vector e_r + e_s: G <- T^T G T with T = I + E_{s r}
        for j in range(k):
            gram[r][j] += gram[s][j]
        for i in range(k):
            gram[i][r] += gram[i][s]
    return gram


# alpha over Q, outside {0, 1, 1/2} (Jordan algebras) and {-1, 2} (baric
# radical).  The size of alpha's numerator and denominator sets how fast
# fractions grow, so it is tied to the shape, not drawn from the seed.
ALPHAS_Q = (3, Fraction(1, 3), -2, Fraction(3, 2), 4, Fraction(-1, 2), -3, Fraction(5, 3))


def _alpha(rng: random.Random, p, baric: bool):
    """A residue outside {0, 1, 1/2}, where the algebra is a Jordan algebra,
    and unless ``baric``, outside {-1, 2}, where the radical is the baric one."""
    excluded = {0, 1, (p + 1) // 2} | (set() if baric else {p - 1, 2})
    while True:
        value = rng.randrange(p)
        if value not in excluded:
            return value


def _cli_job(command, gram, alpha, variant, p) -> Job:
    argv = [command, "--gram", json.dumps([[_scalar_text(x) for x in row] for row in gram])]
    if p is not None:
        argv += ["--p", str(p)]
    if variant == SPLIT:
        argv.append("--alpha=" + _scalar_text(alpha))
    else:
        argv += ["--variant", "cover"]
    params = {"command": command, "p": p, "gram": gram, "alpha": alpha, "variant": variant}
    return Job("cli", tuple(argv), params)


def _verify_job(rng, index, command, k, p) -> Job:
    """Radical jobs and every fourth shape get a degenerate Gram matrix."""
    gram = random_gram(rng, k, 1 if command == "radical" or index % 4 == 3 else 0, p)
    if command == "cover":
        return _cli_job(command, gram, -1, COVER, p)
    alpha = ALPHAS_Q[index % len(ALPHAS_Q)] if p is None else _alpha(rng, p, baric=False)
    return _cli_job(command, gram, alpha, SPLIT, p)


def _scan_job(rng, variant, k, p) -> Job:
    gram = random_gram(rng, k, 0, p)
    alpha = _alpha(rng, p, baric=True) if variant == SPLIT else -1
    return _cli_job("idempotents", gram, alpha, variant, p)


def _orbit_job(rng, kind, p, order) -> Job:
    candidates = [mu for mu in range(2, p - 1)]
    rng.shuffle(candidates)
    mu = next(mu for mu in candidates if rho_order(mu, p) == order)
    params = {"command": kind, "p": p, "mu": mu}
    if kind == "rho_order":
        return Job("rho_order", (), params)
    return Job("cli", ("axet", "--p", str(p), "--mu", str(mu)), params)
