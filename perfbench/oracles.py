"""Output checks that do not rely on splitspin.

Every expected value is computed here with plain ``int`` arithmetic modulo p
or with ``fractions.Fraction`` over Q, from the closed-form product of the
split spin factor and its nil cover (as given in the project README), or is
a property the paper proves.  Nothing in this module imports splitspin, and
no check is an ``assert``, so all of them still run under ``python -O``.

A field is named by ``p``: ``None`` for Q, an odd prime for F_p.
"""

from __future__ import annotations

import json
from fractions import Fraction

SPLIT = "split_spin"
COVER = "cover"


class CheckFailed(Exception):
    """A job's output disagrees with an independently computed value."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- scalars -------------------------------------------------------------------


def to_field(value, p):
    """An int or Fraction as an element of Q (a Fraction) or of F_p (an int)."""
    value = Fraction(value)
    if p is None:
        return value
    return value.numerator * pow(value.denominator, -1, p) % p


def red(value, p):
    """Reduce the result of ring operations on field elements."""
    return value if p is None else value % p


def inv(value, p):
    return 1 / value if p is None else pow(value, -1, p)


def parse_scalar(obj, p):
    """A scalar as the program serializes it: "a/b" over Q, an int in [0, p)."""
    if p is None:
        expect(isinstance(obj, str), f"rational scalar {obj!r} is not a string")
        num, _, den = obj.partition("/")
        value = Fraction(int(num), int(den or "1"))
        expect(str(value.numerator) + "/" + str(value.denominator) == obj,
               f"rational scalar {obj!r} is not in reduced a/b form")
        return value
    expect(isinstance(obj, int) and not isinstance(obj, bool) and 0 <= obj < p,
           f"residue {obj!r} is not an integer in [0, {p})")
    return obj


def scalar_str(value, p) -> str:
    """How the program prints an eigenvalue (dictionary keys of axis reports)."""
    if p is None:
        return str(Fraction(value))
    return str(value % p)


def parse_vector(obj, p):
    expect(isinstance(obj, list), "vector is not a list")
    return [parse_scalar(c, p) for c in obj]


def parse_matrix(obj, p):
    expect(isinstance(obj, list) and obj, "matrix is not a non-empty list")
    return [parse_vector(row, p) for row in obj]


# -- linear algebra ------------------------------------------------------------


def bilinear(gram, u, v, p):
    return red(sum(u[i] * gram[i][j] * v[j]
                   for i in range(len(u)) if u[i]
                   for j in range(len(v)) if v[j]), p)


def mat_vec(m, v, p):
    return [red(sum(a * b for a, b in zip(row, v) if a and b), p) for row in m]


def mat_mul(a, b, p):
    cols = list(zip(*b))
    return [[red(sum(x * y for x, y in zip(row, col) if x and y), p) for col in cols]
            for row in a]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rank(rows, p) -> int:
    """Rank by Gaussian elimination over Q or F_p."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        scale = inv(m[r][c], p)
        m[r] = [red(x * scale, p) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [red(a - f * b, p) for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


# -- the closed-form algebras ------------------------------------------------------


def product(x, y, gram, alpha, variant, p):
    """x y in S(b, alpha) on E + F z1 + F z2, or in the cover on E + F z1 + F n.

    Split spin: e z1 = alpha e, e z2 = (1 - alpha) e, z_i z_i = z_i, z1 z2 = 0,
    e f = -b(e, f)(alpha (alpha - 2) z1 + (alpha - 1)(alpha + 1) z2).
    Cover: e z1 = -e, z1 z1 = z1, n annihilates, e f = -b(e, f)(3 z1 - 2 n).
    """
    k = len(gram)
    u, v = x[:k], y[:k]
    g1, d1, g2, d2 = x[k], x[k + 1], y[k], y[k + 1]
    b = bilinear(gram, u, v, p)
    if variant == SPLIT:
        su = g2 * alpha + d2 * (1 - alpha)
        sv = g1 * alpha + d1 * (1 - alpha)
        tail = [g1 * g2 - b * alpha * (alpha - 2), d1 * d2 - b * (alpha - 1) * (alpha + 1)]
    else:
        su, sv = -g2, -g1
        tail = [g1 * g2 - 3 * b, 2 * b]
    return [red(su * a + sv * c, p) for a, c in zip(u, v)] + [red(t, p) for t in tail]


def structure_table(gram, alpha, variant, p):
    """table[i][j] = b_i b_j as a coordinate vector."""
    n = len(gram) + 2
    basis = identity(n)
    return [[product(basis[i], basis[j], gram, alpha, variant, p) for j in range(n)]
            for i in range(n)]


def frobenius_gram(gram, alpha, variant, p):
    """Split spin: (e, f) = (alpha + 1)(2 - alpha) b(e, f), (z1, z1) = alpha + 1,
    (z2, z2) = 2 - alpha.  Cover: (e, f) = 3 b(e, f), (z1, z1) = 1, n isotropic."""
    k = len(gram)
    if variant == SPLIT:
        scale, t1, t2 = (alpha + 1) * (2 - alpha), alpha + 1, 2 - alpha
    else:
        scale, t1, t2 = 3, 1, 0
    rows = [[red(scale * gram[i][j], p) for j in range(k)] + [0, 0] for i in range(k)]
    rows.append([0] * k + [red(t1, p), 0])
    rows.append([0] * k + [0, red(t2, p)])
    return rows


def check_associates(form, table, p) -> None:
    """(b_i, b_j b_t) = (b_i b_j, b_t) on every basis triple."""
    n = len(form)
    images = [[mat_vec(form, table[j][t], p) for t in range(n)] for j in range(n)]
    for i in range(n):
        for j in range(n):
            for t in range(n):
                expect(images[j][t][i] == images[i][j][t],
                       f"form does not associate on basis triple ({i}, {j}, {t})")


def neg_reflection_extended(e, gram, p):
    """-r_e on E for a norm-one e, extended by the identity on the two
    coordinates outside E; acts on column vectors."""
    k = len(e)
    ge = mat_vec(gram, e, p)
    m = identity(k + 2)
    for i in range(k):
        for j in range(k):
            m[i][j] = red(2 * e[i] * ge[j] - (1 if i == j else 0), p)
    return m


def norm_one_count(gram, p) -> int:
    """N = #{e in F_p^k : b(e, e) = 1}, by brute force over all p^k vectors."""
    k = len(gram)
    count = 0
    vec = [0] * k
    for _ in range(p ** k):
        if bilinear(gram, vec, vec, p) == 1:
            count += 1
        for i in range(k):
            vec[i] += 1
            if vec[i] < p:
                break
            vec[i] = 0
    return count


def rho_order(mu: int, p: int) -> int:
    """Order of [[2 mu, -1], [1, 0]] mod p.

    The matrix has determinant one, so its order divides p - 1 or p + 1, or
    is p or 2 p in the unipotent cases; the smallest exponent among those
    that gives the identity is cut down prime by prime.
    """
    m = ((2 * mu % p, p - 1), (1, 0))
    for n in sorted((p - 1, p + 1, p, 2 * p)):
        if _mat2_pow(m, n, p) == ((1, 0), (0, 1)):
            break
    else:
        raise CheckFailed(f"rho({mu}) over F_{p} has no order dividing p +- 1, p or 2p")
    for q in _prime_factors(n):
        while n % q == 0 and _mat2_pow(m, n // q, p) == ((1, 0), (0, 1)):
            n //= q
    return n


def _mat2_mul(a, b, p):
    return (
        ((a[0][0] * b[0][0] + a[0][1] * b[1][0]) % p, (a[0][0] * b[0][1] + a[0][1] * b[1][1]) % p),
        ((a[1][0] * b[0][0] + a[1][1] * b[1][0]) % p, (a[1][0] * b[0][1] + a[1][1] * b[1][1]) % p),
    )


def _mat2_pow(m, n, p):
    result = ((1, 0), (0, 1))
    while n:
        if n & 1:
            result = _mat2_mul(result, m, p)
        m = _mat2_mul(m, m, p)
        n >>= 1
    return result


def _prime_factors(n: int) -> list[int]:
    factors, q = [], 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        factors.append(n)
    return factors


# -- per-command checks --------------------------------------------------------------


def check_job(params: dict, output) -> None:
    """Raise CheckFailed unless the job's output is right.

    ``output`` is the captured stdout of ``splitspin.cli.main`` (a JSON
    document), or the returned ``OrbitSize`` for a ``rho_order`` job.
    """
    command = params["command"]
    if command == "rho_order":
        expect(output.is_finite and output.order == rho_order(params["mu"], params["p"]),
               f"rho_order({params['mu']}) over F_{params['p']} gave {output!r}")
        return
    doc = json.loads(output)
    _CHECKS[command](params, doc)


def _inputs(params):
    p = params["p"]
    gram = [[to_field(x, p) for x in row] for row in params["gram"]]
    alpha = to_field(params["alpha"], p) if params["variant"] == SPLIT else to_field(-1, p)
    return p, gram, alpha, params["variant"]


def _check_build(params, doc):
    p, gram, alpha, variant = _inputs(params)
    k = len(gram)
    n = k + 2
    expect(doc["dimension"] == n and len(doc["basis"]) == n, "wrong algebra dimension")
    emitted = [[[0] * n for _ in range(n)] for _ in range(n)]
    seen = set()
    for i, j, t, value in doc["structure_constants"]:
        expect(0 <= i <= j < n and 0 <= t < n and (i, j, t) not in seen,
               f"bad structure-constant index {(i, j, t)}")
        seen.add((i, j, t))
        value = parse_scalar(value, p)
        expect(value != 0, "a zero structure constant was emitted")
        emitted[i][j][t] = emitted[j][i][t] = value
    table = structure_table(gram, alpha, variant, p)
    for i in range(n):
        for j in range(i, n):
            expect(emitted[i][j] == table[i][j], f"product of basis pair ({i}, {j}) is wrong")
    check_associates(frobenius_gram(gram, alpha, variant, p), emitted, p)


def _check_frobenius(params, doc):
    p, gram, alpha, variant = _inputs(params)
    form = frobenius_gram(gram, alpha, variant, p)
    expect(parse_matrix(doc["gram"], p) == form, "Frobenius Gram differs from the closed form")
    check_associates(form, structure_table(gram, alpha, variant, p), p)
    n = len(form)
    expected_rank = rank(form, p)
    expect(doc["rank"] == expected_rank, f"rank {doc['rank']} != {expected_rank}")
    radical = [parse_vector(v, p) for v in doc["radical"]]
    expect(len(radical) == n - expected_rank and rank(radical, p) == len(radical),
           "form radical is not a basis of the kernel")
    for v in radical:
        expect(not any(mat_vec(form, v, p)), "radical vector is not in the kernel of the form")


def _check_radical(params, doc):
    p, gram, alpha, variant = _inputs(params)
    expect(doc["baric"] is None, "non-baric alpha reported as baric")
    k = len(gram)
    radical = [parse_vector(v, p) for v in doc["radical"]]
    nullity = k - rank(gram, p)
    expect(len(radical) == nullity, f"radical dimension {len(radical)} != Gram nullity {nullity}")
    expect(rank(radical, p) == nullity, "radical vectors are dependent")
    for v in radical:
        expect(v[k:] == [0, 0] and not any(mat_vec(gram, v[:k], p)),
               "radical vector is not in E-perp")


def _check_axis(report, gram, alpha, variant, p, name):
    """One axis report: idempotency, eigenspace dimensions, Miyamoto matrix."""
    k = len(gram)
    half = inv(to_field(2, p), p)
    x = parse_vector(report["axis"], p)
    expect(product(x, x, gram, alpha, variant, p) == x, f"{name} axis is not idempotent")
    expect(report["ok"] is True and report["primitive"] is True and report["violations"] == [],
           f"{name} axis was not verified")
    miyamoto = parse_matrix(report["miyamoto"], p)
    expect(mat_mul(miyamoto, miyamoto, p) == identity(k + 2), f"{name} Miyamoto matrix is not an involution")
    if name in ("z1", "z2"):
        expect(x == identity(k + 2)[k if name == "z1" else k + 1], f"{name} axis has wrong coordinates")
        eta = alpha if name == "z1" else red(1 - alpha, p)
        dims = {scalar_str(1, p): 1, scalar_str(0, p): 1, scalar_str(eta, p): k}
        flip = identity(k + 2)
        for i in range(k):
            flip[i][i] = red(-1, p)
        expect(miyamoto == flip, f"{name} Miyamoto matrix does not negate E")
    else:
        e = [red(2 * c, p) for c in x[:k]]
        expect(bilinear(gram, e, e, p) == 1, f"{name} axis is not attached to a norm-one e")
        if name == "family_a":
            eta, tail = alpha, [alpha * half, (alpha + 1) * half]
        elif name == "family_b":
            eta, tail = red(1 - alpha, p), [(2 - alpha) * half, (1 - alpha) * half]
        else:
            eta, tail = red(-1, p), [red(-half, p), half]
        expect(x[k:] == [red(t, p) for t in tail], f"{name} axis is off its family template")
        dims = {scalar_str(1, p): 1, scalar_str(0, p): 1, scalar_str(eta, p): 1,
                scalar_str(half, p): k - 1}
        expect(miyamoto == neg_reflection_extended(e, gram, p),
               f"{name} Miyamoto matrix differs from -r_e")
    expect(report["dims"] == dims, f"{name} eigenspace dimensions {report['dims']} != {dims}")


def _check_axis_check(params, doc):
    p, gram, alpha, variant = _inputs(params)
    witnesses = [parse_vector(v, p) for v in doc["norm_one"]["vectors"]][:4]
    for e in witnesses:
        expect(bilinear(gram, e, e, p) == 1, "reported norm-one vector has another norm")
    names = [r["axis_name"] for r in doc["axes"]]
    expect(names == ["z1", "z2"] + ["family_a", "family_b"] * len(witnesses),
           f"unexpected axis list {names}")
    for report in doc["axes"]:
        _check_axis(report, gram, alpha, variant, p, report["axis_name"])


def _check_cover(params, doc):
    p, gram, alpha, variant = _inputs(params)
    k = len(gram)
    for flag in ("nil_ideal_ok", "no_identity_ok", "quotient_iso_ok", "frobenius_ok",
                 "radical_ok", "all_ok"):
        expect(doc[flag] is True, f"cover flag {flag} is not true")
    witnesses = [parse_vector(v, p) for v in doc["witnesses"]]
    expect(doc["three_c_ok"] is (True if witnesses else None), "3C(-1) flag is wrong")
    _check_axis(doc["z1"], gram, alpha, COVER, p, "z1")
    expect(len(doc["axes"]) == len(witnesses), "one axis report per witness expected")
    for report in doc["axes"]:
        _check_axis(report, gram, alpha, COVER, p, "family_exc")
    radical = [parse_vector(v, p) for v in doc["radical"]]
    nullity = k - rank(gram, p)
    expect(len(radical) == nullity + 1 and rank(radical, p) == nullity + 1,
           "cover radical is not E-perp + <n>")
    for v in radical:
        expect(v[k] == 0 and not any(mat_vec(gram, v[:k], p)), "cover radical vector is off E-perp + <n>")


def _check_idempotents(params, doc):
    p, gram, alpha, variant = _inputs(params)
    n_norm_one = norm_one_count(gram, p)
    expected = 3 + 2 * n_norm_one if variant == SPLIT else 1 + n_norm_one
    expect(doc["norm_one"]["status"] == "exhaustive" and doc["norm_one"]["count"] == n_norm_one,
           f"norm-one count {doc['norm_one']['count']} != {n_norm_one}")
    enum = doc["enumeration"]
    listed = [parse_vector(entry["coords"], p) for entry in enum["idempotents"]]
    expect(enum["nonzero_count"] == expected == len(listed),
           f"{enum['nonzero_count']} idempotents, expected {expected}")
    expect(all(entry["class"] != "other" for entry in enum["idempotents"]), "an idempotent is tagged other")
    expect(len({tuple(x) for x in listed}) == len(listed), "an idempotent is listed twice")
    for x in listed:
        expect(any(x) and product(x, x, gram, alpha, variant, p) == x, f"{x} is not a nonzero idempotent")


def _check_axet(params, doc):
    p = params["p"]
    size = rho_order(params["mu"], p)
    expect(doc["size"] == size, f"axet size {doc['size']} != order of rho {size}")
    odd = size % 2 == 1
    expect(doc["split"] == ("single" if odd else "two_halves") and doc["index"] == (1 if odd else 2),
           f"split/index {doc['split']}/{doc['index']} break the parity rule for |X| = {size}")


_CHECKS = {
    "build": _check_build,
    "frobenius": _check_frobenius,
    "radical": _check_radical,
    "axis-check": _check_axis_check,
    "cover": _check_cover,
    "idempotents": _check_idempotents,
    "axet": _check_axet,
}
