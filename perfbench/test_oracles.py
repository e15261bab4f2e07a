"""The benchmark's output checks against brute force on small fields.

    python3 -m pytest perfbench/test_oracles.py -q

Brute force here means enumerating every vector of F_p^n: idempotents,
eigenvectors, kernel vectors and axis orbits are counted directly and
compared with what oracles.py computes in closed form.  The last tests run
one small job per command through the real program and check that the
oracles accept its output and reject a corrupted copy.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest

import oracles
from oracles import COVER, SPLIT, CheckFailed
from workloads import Job, random_gram

SMALL = [(5, 1), (5, 2), (7, 1), (7, 2), (11, 1)]


def all_vectors(p, n):
    return [list(v) for v in itertools.product(range(p), repeat=n)]


def eigen_dim(x, lam, gram, alpha, variant, p) -> int:
    """dim of {v : x v = lam v}, from the number of such vectors."""
    count = sum(
        1 for v in all_vectors(p, len(gram) + 2)
        if oracles.product(x, v, gram, alpha, variant, p) == [lam * c % p for c in v]
    )
    dim = 0
    while p ** dim < count:
        dim += 1
    assert p ** dim == count
    return dim


def grams(p, k, rng):
    return [random_gram(rng, k, 0, p), random_gram(rng, k, min(1, k - 1), p)]


@pytest.mark.parametrize("p,k", SMALL)
def test_idempotent_count_matches_brute_force(p, k):
    rng = random.Random(p * 10 + k)
    half = (p + 1) // 2
    for gram in grams(p, k, rng):
        n_norm_one = oracles.norm_one_count(gram, p)
        assert n_norm_one == sum(1 for e in all_vectors(p, k) if oracles.bilinear(gram, e, e, p) == 1)
        for variant, alpha in [(SPLIT, a) for a in range(p) if a not in (0, 1, half)] + [(COVER, p - 1)]:
            found = [x for x in all_vectors(p, k + 2)
                     if any(x) and oracles.product(x, x, gram, alpha, variant, p) == x]
            expected = 3 + 2 * n_norm_one if variant == SPLIT else 1 + n_norm_one
            assert len(found) == expected, (gram, variant, alpha)


@pytest.mark.parametrize("p,k", [(5, 2), (7, 2), (5, 3)])
def test_eigenspace_dimensions_and_miyamoto(p, k):
    rng = random.Random(p + k)
    half = (p + 1) // 2
    alpha = next(a for a in (3, 2) if a != half)
    for gram in grams(p, k, rng):
        n = k + 2
        z1 = [0] * k + [1, 0]
        assert eigen_dim(z1, 1, gram, alpha, SPLIT, p) == 1
        assert eigen_dim(z1, 0, gram, alpha, SPLIT, p) == 1
        assert eigen_dim(z1, alpha, gram, alpha, SPLIT, p) == k
        for e in (e for e in all_vectors(p, k) if oracles.bilinear(gram, e, e, p) == 1):
            x = [c * half % p for c in e] + [alpha * half % p, (alpha + 1) * half % p]
            assert oracles.product(x, x, gram, alpha, SPLIT, p) == x
            dims = [eigen_dim(x, lam, gram, alpha, SPLIT, p) for lam in (1, 0, alpha, half)]
            assert dims == [1, 1, 1, k - 1]
            tau = oracles.neg_reflection_extended(e, gram, p)
            assert oracles.mat_mul(tau, tau, p) == oracles.identity(n)
            table = oracles.structure_table(gram, alpha, SPLIT, p)
            cols = [[tau[r][c] for r in range(n)] for c in range(n)]  # images of basis vectors
            for i in range(n):
                for j in range(n):
                    assert oracles.mat_vec(tau, table[i][j], p) == oracles.product(
                        cols[i], cols[j], gram, alpha, SPLIT, p)
            # tau negates exactly the 1/2-eigenvectors of x
            for v in all_vectors(p, n):
                xv = oracles.product(x, v, gram, alpha, SPLIT, p)
                if xv == [half * c % p for c in v] and any(v):
                    assert oracles.mat_vec(tau, v, p) == [-c % p for c in v]
                elif xv == v or not any(xv):
                    assert oracles.mat_vec(tau, v, p) == v
            break  # one norm-one vector per Gram matrix keeps this fast


@pytest.mark.parametrize("p,k", [(5, 2), (7, 3), (11, 2)])
def test_rank_matches_kernel_count(p, k):
    rng = random.Random(k)
    for gram in grams(p, k, rng):
        kernel = sum(1 for v in all_vectors(p, k) if not any(oracles.mat_vec(gram, v, p)))
        assert kernel == p ** (k - oracles.rank(gram, p))


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31, 101])
def test_rho_order_matches_repeated_multiplication(p):
    for mu in range(p):
        m = ((2 * mu % p, p - 1), (1, 0))
        acc, order = m, 1
        while acc != ((1, 0), (0, 1)):
            acc = oracles._mat2_mul(acc, m, p)
            order += 1
        assert oracles.rho_order(mu, p) == order


@pytest.mark.parametrize("p", [7, 11, 13])
def test_axet_size_is_rho_order(p):
    """Close {e, f} under the negated reflections -r_v of every vector found."""
    for mu in range(2, p - 1):
        gram = [[1, mu], [mu, 1]]
        orbit, queue = [(1, 0), (0, 1)], [(1, 0), (0, 1)]
        while queue:
            v = queue.pop()
            for g in list(orbit):
                tau = oracles.neg_reflection_extended(list(g), gram, p)
                image = tuple(oracles.mat_vec([row[:2] for row in tau[:2]], list(v), p))
                if image not in orbit:
                    orbit.append(image)
                    queue.append(image)
        assert len(orbit) == oracles.rho_order(mu, p)


def test_associativity_rejects_a_wrong_form():
    p, gram, alpha = 7, [[1, 2], [2, 4]], 3
    table = oracles.structure_table(gram, alpha, SPLIT, p)
    form = oracles.frobenius_gram(gram, alpha, SPLIT, p)
    oracles.check_associates(form, table, p)
    form[2][2] = (form[2][2] + 1) % p
    with pytest.raises(CheckFailed):
        oracles.check_associates(form, table, p)


# -- the checks on real program output ----------------------------------------------


def _job(command, gram, p, variant=SPLIT, alpha=3):
    from workloads import _cli_job

    return _cli_job(command, gram, alpha if variant == SPLIT else -1, variant, p)


CASES = [
    _job("build", [[1, 1, 0], [1, 4, 0], [0, 0, 0]], None, alpha=Fraction(1, 3)),
    _job("axis-check", [[1, 1, 0], [1, 4, 0], [0, 0, 1]], None),
    _job("frobenius", [[1, 2, 0], [2, 4, 0], [0, 0, 1]], 10007),
    _job("radical", [[1, 2, 0], [2, 4, 0], [0, 0, 1]], None),
    _job("cover", [[1, 0, 0], [0, 1, 0], [0, 0, 0]], 10007, variant=COVER),
    _job("idempotents", [[1, 1], [1, 4]], 7),
    _job("idempotents", [[1, 1], [1, 4]], 7, variant=COVER),
    Job("cli", ("axet", "--p", "101", "--mu", "5"), {"command": "axet", "p": 101, "mu": 5}),
    Job("rho_order", (), {"command": "rho_order", "p": 1009, "mu": 7}),
]


def _corrupt(command, doc):
    if command == "build":
        doc["structure_constants"].pop()
    elif command == "axis-check":
        doc["axes"][-1]["dims"]["1"] = 2
    elif command == "frobenius":
        doc["rank"] -= 1
    elif command == "radical":
        doc["radical"].append(doc["radical"][0])
    elif command == "cover":
        doc["axes"][0]["miyamoto"][0][0] = (doc["axes"][0]["miyamoto"][0][0] + 1) % 10007
    elif command == "idempotents":
        doc["enumeration"]["idempotents"].pop()
    elif command == "axet":
        doc["size"] += 1
    return doc


@pytest.mark.parametrize("job", CASES, ids=lambda job: job.params["command"])
def test_checks_accept_program_output_and_reject_corruption(job):
    from worker import run_job

    code, output = run_job(job)
    assert code == 0
    oracles.check_job(job.params, output)
    if job.kind == "rho_order":
        with pytest.raises(CheckFailed):
            oracles.check_job(job.params, dataclasses.replace(output, order=output.order + 1))
        return
    bad = json.dumps(_corrupt(job.params["command"], json.loads(output)))
    with pytest.raises((CheckFailed, KeyError, ValueError, TypeError)):
        oracles.check_job(job.params, bad)
