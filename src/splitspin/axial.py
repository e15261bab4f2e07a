"""Fusion laws, axis verification, Miyamoto involutions, Frobenius forms,
radicals and simplicity.

The Monster-type law on {1, 0, alpha, beta} and its Jordan-type sublaw on
{1, 0, eta} are the only laws constructed here.  Axis checking decomposes
the algebra into adjoint eigenspaces for exactly the law's eigenvalues, on
the paper's eigenvectors where x's class has them, else on solved kernels:
an incomplete decomposition signals that the wrong law was tried, and
fusion violations carry the offending eigenvalue as a witness.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import COVER, SPLIT_SPIN, Algebra, Element
from .errors import (
    BaricCase,
    BadCharacteristic,
    CharTwo,
    DimensionMismatch,
    EigenvalueCollision,
    FieldMismatch,
    IncompleteDecomposition,
    NotAnAutomorphism,
    NotIdempotent,
    UnverifiedSpanHypothesis,
    VerificationFailed,
    WrongAlgebraKind,
    check,
)
from .fields import Field, Scalar
from .idempotents import FAMILY_A, TAG_FAMILY_A, TAG_FAMILY_B, classes, eigenbasis, family_axis
from .linalg import Echelon, Matrix, Vector, combine, int_vector, raw_values, zero_one
from .quadratic import NormOneSearch

JORDAN = "jordan"
MONSTER = "monster"

SIMPLE = "Simple"
DEGENERATE_FORM = "DegenerateForm"
BARIC_MINUS_ONE = "BaricMinusOne"
BARIC_TWO = "BaricTwo"


@dataclass(frozen=True)
class FusionLaw:
    """Eigenvalues with a symmetric product table and a C2-grading: entry
    table[a][b] holds the indices of the eigenvalues allowed in the product
    of the eigenvalues[a]- and eigenvalues[b]-eigenspaces."""

    kind: str
    eigenvalues: tuple[Scalar, ...]
    table: tuple[tuple[frozenset, ...], ...]
    plus: frozenset
    minus: frozenset

    def __repr__(self):
        vals = ", ".join(str(v) for v in self.eigenvalues)
        return f"FusionLaw({self.kind}: {vals})"

    @functools.cached_property
    def grades(self) -> list[bool]:  # whether each eigenvalue lies in the plus part, read once per law
        return [lam in self.plus for lam in self.eigenvalues]


def _law(field: Field, kind: str, named: list[tuple[str, object]]) -> FusionLaw:
    """The law on 1, 0 and the named eigenvalues, the last one graded and at
    most one other.  A product lies in the later eigenvalue of the pair (1
    and 0 act as identity and zero, the ungraded value fixes the graded
    one), except 1 0 = {}, the ungraded value squares into {1, 0} and the
    graded value squares into the plus part."""
    one, zero = field.one(), field.zero()
    named = [("1", one), ("0", zero), *((name, field.scalar(value)) for name, value in named)]
    for (n1, v1), (n2, v2) in itertools.combinations(named, 2):
        if v1 == v2:
            raise EigenvalueCollision(f"{n1} = {v1} collides with {n2} = {v2}")
    eigenvalues = tuple(value for _, value in named)
    graded = len(eigenvalues) - 1
    table = [[frozenset([max(a, b)]) for b in range(graded + 1)] for a in range(graded + 1)]
    table[0][1] = table[1][0] = frozenset()
    for a in range(2, graded + 1):
        table[a][a] = frozenset([0, 1]) if a < graded else frozenset(range(graded))
    return FusionLaw(kind, eigenvalues, tuple(map(tuple, table)), frozenset(eigenvalues[:graded]),
                     frozenset(eigenvalues[graded:]))


def jordan_law(field: Field, eta) -> FusionLaw:
    """The Jordan-type law on {1, 0, eta}: eta is the graded eigenvalue."""
    return _law(field, JORDAN, [("eta", eta)])


def monster_law(field: Field, alpha, beta) -> FusionLaw:
    """The Monster-type law on {1, 0, alpha, beta}: beta is the graded
    eigenvalue, alpha * alpha = {1, 0} and beta * beta = {1, 0, alpha}."""
    return _law(field, MONSTER, [("alpha", alpha), ("beta", beta)])


def axis_law(algebra: Algebra, tag: str) -> FusionLaw:
    """The fusion law of the axes in one idempotent class, on the eta that
    `classes` gives it: a point class (z1, z2) is of Jordan type eta, a
    family of Monster type (eta, 1/2)."""
    family, _, eta, _ = classes(algebra).get(tag, (None, None, None, None))
    if eta is None:
        raise ValueError(f"no axes of class {tag!r} on the {algebra.meta.kind} algebra")
    field = algebra.field
    return jordan_law(field, eta) if family is None else monster_law(field, eta, field.half())


def class_axes(algebra: Algebra, witnesses: Sequence) -> list[tuple[str, Element, FusionLaw]]:
    """(tag, axis, law) for every class axis in `classes` order: the point
    classes with a law (z1 and z2, z1 alone on the cover), then every family
    member of each norm-one witness e in turn.  Every law is built, and may
    raise EigenvalueCollision, before any axis is."""
    table = classes(algebra)
    laws = {tag: axis_law(algebra, tag) for tag, (_, _, eta, _) in table.items() if eta is not None}
    axes = [(tag, algebra.basis_by_label(tag), law) for tag, law in laws.items() if table[tag][0] is None]
    for e in witnesses:
        axes += [(tag, family_axis(algebra, e, table[tag][0]), law) for tag, law in laws.items() if table[tag][0]]
    return axes


@dataclass
class AxisReport:
    """Per-axis verdict: eigenspace dimensions, primitivity, fusion violations (lambda, mu, offending
    eigenvalue) and the Miyamoto involution as (L, the int rows of L tau), residues over F_p, where L = 1
    (None when the grading fails to give an automorphism); `miyamoto`, its Matrix, is built on first read."""

    axis: Element
    law: FusionLaw
    dims: dict
    primitive: bool
    violations: tuple
    tau: tuple[int, list[list[int]]] | None

    @functools.cached_property
    def miyamoto(self) -> Matrix | None:
        if self.tau is not None:  # over Q one Fraction(c, L) per nonzero entry, and the shared zero
            (scale, rows), field, zero = self.tau, self.axis.algebra.field, zero_one(self.axis.algebra.field)[0]
            return Matrix._from_raw(field, rows if field.p else ([Fraction(c, scale) if c else zero for c in row]
                                                                 for row in rows))

    @property
    def ok(self) -> bool:
        return self.primitive and not self.violations and self.tau is not None


def check_axis(algebra: Algebra, x: Element, law: FusionLaw) -> AxisReport:
    """Full axis verification of the idempotent x against the law.

    The eigenbasis B, as sparse int vectors, is the paper's
    (`idempotents.eigenbasis`, each vector checked by one product
    x v = lambda v) for a class idempotent under its class's eigenvalues,
    else the kernels of ad_x - lambda from `eigenspaces_raw`.  `Echelon.inverting` proves B a basis, so dims,
    primitivity and tau do not depend on which it is, and each template
    vector is a nonzero multiple of the solved kernel vector in its place,
    so the supports, and with them the violations and their order, agree.

    Each eigenbasis product u v (each unordered pair once: the algebra is
    commutative) is written in eigenbasis coordinates once, by `combine` on
    the columns of Q B^-1 at its nonzero coordinates, but for two sets of
    pairs whose supports are known and would only repeat what is found: the
    row of a primitive x (x v = lambda v), and the pairs of a block inside
    E after its first nonzero product when `Algebra.e_line` holds (every
    pair of blocks inside E when no E x E cell is stored).
    Components outside the law give the violations (lambda, mu, nu) in
    order of first occurrence; the Miyamoto involution tau = B D B^-1 (plus
    part fixed, minus part negated) is multiplicative exactly when no
    component has a grade other than grade(lambda) grade(mu), and is built
    only then.

    The loop runs on ints: eigenvalues as indices into the law (their
    grades read once per law), the stored cells (D times the constants), the
    eigenvectors and the columns of Q B^-1 that `Echelon.inverting` hands
    back, Q the diagonal of the pivot entries q_t (1 over F_p); no scale
    changes a support.  tau is built on ints too, as L tau for L the lcm of
    the q_t, checked row by row through `combine` to square to L^2, and
    reported as (L, its int rows).

    Raises NotIdempotent unless x is nonzero and in the kernel of ad_x - 1
    (the law's first eigenvalue), and IncompleteDecomposition when the
    adjoint eigenspaces for the law's eigenvalues do not fill the algebra.
    """
    field, n, p = algebra.field, algebra.dim, algebra.field.p
    eigenvalues, values, plus = law.eigenvalues, raw_values(field, law.eigenvalues), law.grades
    bases = eigenbasis(algebra, x, values)
    if bases is None:
        bases = algebra.eigenspaces_raw(x.raw, values)
        if x.is_zero or Echelon(field, bases[0]).reduce(int_vector(field, x.raw)):  # x in ker(ad_x - 1)
            raise NotIdempotent("axis candidates must be nonzero idempotents")
    dims = {lam: len(basis) for lam, basis in zip(eigenvalues, bases)}
    if sum(dims.values()) != n:
        raise IncompleteDecomposition(f"eigenspace dimensions {tuple(dims.values())} sum to "
                                      f"{sum(dims.values())} < {n}: an eigenvalue lies outside the law", dims=dims)

    # Q B^-1 by column for the concatenated eigenbasis B, Q the diagonal of positive ints q_t (1 over F_p)
    vectors = [v for basis in bases for v in basis]
    inverted = Echelon.inverting(field, [{t: v[i] for t, v in enumerate(vectors) if i in v} for i in range(n)])
    check(inverted is not None, "a complete eigenbasis must be a basis", witness=bases)
    (q, inverse_columns), owner = inverted, [a for a, basis in enumerate(bases) for _ in basis]

    def support(u, v) -> set[int]:
        """The eigenvalue indices of the nonzero eigenbasis coordinates of u v."""
        coords = combine(inverse_columns, algebra._mul_coords(u, v).items())
        return {owner[t] for t, c in coords.items() if (c % p if p else c)}

    blocks = [[t for t, a in enumerate(owner) if a == b] for b in range(len(bases))]
    # block 0 a multiple of x alone: x v = lambda_b v gives row 0 the supports {b}, or {} at lambda_b = 0,
    # which add nothing when the law allows each in its grade
    first = int(len(blocks[0]) == 1
                and all(not lam or plus[0] and b in law.table[0][b] for b, lam in enumerate(values)))
    # E's products on one line are multiples of one vector: a block inside E has one support or none
    m, empty = (algebra.e_dim, algebra._e_line[1]) if algebra.e_line else (0, False)
    in_e = [all(max(vectors[s]) < m for s in block) for block in blocks]
    found, graded = [], True  # violations as (lambda, mu, nu) indices; whether tau is multiplicative
    for a, allowed_with in enumerate(law.table[first:], first):
        for b, allowed in enumerate(allowed_with[a:], a):
            if empty and in_e[a] and in_e[b]:
                continue  # no E x E cell: every product of two vectors of E is zero
            grade = plus[a] == plus[b]
            for s, t in ((s, t) for s in blocks[a] for t in blocks[b] if a < b or s <= t):
                nus = support(vectors[s], vectors[t])
                for nu in sorted(nus - allowed):
                    if (a, b, nu) not in found:
                        found.append((a, b, nu))
                graded = graded and all(plus[nu] == grade for nu in nus)
                if nus and a == b and in_e[a]:
                    break  # every later pair repeats this support or has none
    violations = tuple((eigenvalues[a], eigenvalues[b], eigenvalues[nu]) for a, b, nu in found)

    tau = None
    if graded:  # L tau = sum over t of (+-column t of B)(L / q_t)(row t of Q B^-1), L the lcm of the q_t
        scale = math.lcm(*q)
        signed = [scale // q[t] if plus[owner[t]] else -scale // q[t] for t in range(n)]
        rows = [[0] * n for _ in range(n)]
        for j, column in enumerate(inverse_columns):
            for t, c in column:
                w = signed[t] * c
                for i, b in vectors[t].items():
                    rows[i][j] += b * w
        rows = [[c % p for c in row] for row in rows] if p else rows
        pairs = [[(j, c) for j, c in enumerate(row) if c] for row in rows]
        for i, row in enumerate(pairs):  # (L tau)^2 = L^2 I, row by row
            square = combine(pairs, row)
            square[i] = square.get(i, 0) - scale * scale
            check(not any(c % p if p else c for c in square.values()),
                  "the grading involution must square to the identity", witness=(scale, rows))
        tau = scale, rows
    return AxisReport(x, law, dims, dims[eigenvalues[0]] == 1, violations, tau)


def miyamoto(algebra: Algebra, x: Element, law: FusionLaw) -> Matrix:
    """The involution fixing the plus part and negating the minus part,
    verified to be an algebra automorphism."""
    report = check_axis(algebra, x, law)
    if report.miyamoto is None:
        raise NotAnAutomorphism("the plus/minus flip does not preserve products")
    return report.miyamoto


def extend_orthogonal(algebra: Algebra, m_on_e: Matrix) -> Matrix:
    """Extend a linear map on E to the whole algebra, fixing the two
    distinguished basis vectors outside E."""
    if algebra.meta.space is None:
        raise WrongAlgebraKind("algebra has no quadratic part")
    if m_on_e.field != algebra.field:
        raise FieldMismatch(f"map over {m_on_e.field!r} for an algebra over {algebra.field!r}")
    k, n = algebra.e_dim, algebra.dim
    if m_on_e.rows != k or m_on_e.cols != k:
        raise DimensionMismatch("map must act on E")
    rows = [[m_on_e.raw[i][j] if i < k and j < k else int(i == j) for j in range(n)]
            for i in range(n)]
    return Matrix(algebra.field, rows)


def axes_with_involution(algebra: Algebra, e) -> tuple[Element, Element, Element, Element]:
    """The four axes x, x^-, 1-x, 1-x^- of the split spin algebra sharing
    the Miyamoto involution -r_e (extended by the identity on the z-part);
    each one is verified.  `family_axis` rejects any other algebra,
    characteristic 2 and an e with b(e, e) != 1."""
    x = family_axis(algebra, e, FAMILY_A)
    space = algebra.meta.space
    e = space.vector(e)
    x_minus = family_axis(algebra, tuple(-c for c in e), FAMILY_A)
    one_elt = algebra.identity()
    y = one_elt - x  # 1 - x_a(e) = x_b(-e)
    y_minus = one_elt - x_minus
    expected = extend_orthogonal(algebra, space.neg_reflection(e))
    law_a, law_b = axis_law(algebra, TAG_FAMILY_A), axis_law(algebra, TAG_FAMILY_B)
    for axis, law in ((x, law_a), (x_minus, law_a), (y, law_b), (y_minus, law_b)):
        tau = miyamoto(algebra, axis, law)
        check(tau == expected, "Miyamoto involution differs from the negated reflection",
              witness=(axis, tau, expected))
    return x, x_minus, y, y_minus


@dataclass
class FrobeniusForm:
    """A symmetric bilinear form associating with the product:
    (a, bc) = (ab, c), verified on all basis triples at construction."""

    algebra: Algebra
    gram: Matrix
    radical_basis: tuple[Element, ...]

    def evaluate(self, u: Element, v: Element) -> Scalar:
        acc, p = sum(map(operator.mul, u.raw, self.gram.apply_raw(v.raw))), self.gram.field.p
        return Scalar(self.gram.field, acc % p if p else acc)


def frobenius(algebra: Algebra) -> FrobeniusForm:
    """The Frobenius form of a split spin or cover algebra.

    Split spin: (e, f) = (alpha+1)(2-alpha) b(e, f), (z1, z1) = alpha+1,
    (z2, z2) = 2-alpha, everything else orthogonal.  Cover: (e, f) = 3 b(e, f),
    (z1, z1) = 1, and n is isotropic and orthogonal to everything.

    Associativity is checked on ints, with S F (S = s q^2 for the form's
    scale s and alpha = r / q) read off the form's int terms: the nonzero
    T[i, j, t] = S D (b_i, b_j b_t), j <= t, are each cell b_j b_t through
    `combine` with S F, and the form associates exactly when T is symmetric.
    Each stored entry is compared with its permutations (a missing key reads
    0), which meets any two differing entries from the nonzero side.  Only
    if that fails, the first (i, j, t) in lexicographic order with
    (b_i, b_j b_t) != (b_i b_j, b_t) is raised as witness.
    The radical is read off F's blocks: the lift of the radical of b (all of
    E when the E-block's scale vanishes) and each z basis vector of length 0.
    """
    kind = algebra.meta.kind
    if kind not in (SPLIT_SPIN, COVER):
        raise WrongAlgebraKind(f"no Frobenius form constructor for a {kind} algebra")
    field, space = algebra.field, algebra.meta.space
    k, n, p, s = space.dim, algebra.dim, field.p, space._scale
    if kind == SPLIT_SPIN:  # alpha = r / q: S F on ints for S = s q^2
        r, q = algebra.meta.alpha.value.as_integer_ratio()
        e_scale, z_diagonal = (r + q) * (2 * q - r), (s * q * (r + q), s * q * (2 * q - r))
    else:
        q, e_scale, z_diagonal = 1, 3, (s, 0)
    terms = [(i, j, e_scale * c) for i, j, c in space._terms] + [(k, k, z_diagonal[0]), (k + 1, k + 1, z_diagonal[1])]

    rows = [[zero_one(field)[0]] * n for _ in range(n)]
    columns = [[] for _ in range(n)]  # column c's (i, S F_ic), from the terms of S F
    for i, j, c in terms:
        rows[i][j] = rows[j][i] = c % p if p else Fraction(c, s * q * q)
        columns[j].append((i, c))
        columns[i] += [(j, c)] if i != j else []
    gram = Matrix._from_raw(field, rows)
    if not any(map(any, gram.raw)):
        raise BadCharacteristic("the Frobenius form vanishes identically here")
    tensor: dict[tuple[int, int, int], int] = {}
    for j, t in itertools.combinations_with_replacement(range(n), 2):
        for i, x in combine(columns, algebra.cell(j, t)).items():
            if p:
                x %= p
            if x:
                tensor[i, j, t] = x

    def entry(i: int, j: int, t: int) -> int:  # T is symmetric in its last two places
        return tensor.get((i, j, t) if j <= t else (i, t, j), 0)

    if any(entry(j, i, t) != x or entry(t, i, j) != x for (i, j, t), x in tensor.items()):
        witness = min(w for i, j, t in tensor for w in itertools.permutations((i, j, t))
                      if entry(*w) != entry(w[2], w[0], w[1]))
        raise VerificationFailed(f"Frobenius associativity fails on basis triple {witness}", witness)
    e_radical = space.radical() if (e_scale % p if p else e_scale) else Matrix.identity(field, k).raw
    radical = [algebra.element(_lift(algebra, v)) for v in e_radical]
    radical += [algebra.basis(i) for i in (k, k + 1) if not gram.raw[i][i]]
    return FrobeniusForm(algebra, gram, tuple(radical))


def _verify_ideal(algebra: Algebra, vectors: Sequence[tuple]) -> None:
    """Raise VerificationFailed, with the first (vector, basis) index pair
    whose product leaves the span, unless the span of the raw vectors is an
    ideal."""
    witness = algebra.ideal_witness(vectors)
    check(witness is None, "radical candidate is not an ideal", witness)


def algebra_radical(algebra: Algebra) -> tuple[Element, ...]:
    """Basis of the radical: the lift of E-perp (split spin, alpha outside
    {-1, 2}) or E-perp + <n> (cover).  Raises BaricCase for alpha in {-1, 2},
    carrying the rank-one-form radical E + F z1 (resp. E + F z2)."""
    kind = algebra.meta.kind
    if kind == SPLIT_SPIN:
        baric, k = _baric(algebra), algebra.e_dim
        if baric is not None:
            vecs = [algebra.basis(i).raw for i in (*range(k), k if baric == -1 else k + 1)]
            _verify_ideal(algebra, vecs)
            raise BaricCase(f"alpha={baric}", tuple(algebra.element(v) for v in vecs))
    elif kind == COVER:
        if algebra.field.characteristic in (2, 3):
            raise BadCharacteristic("cover radical requires characteristic outside {2, 3}")
    else:
        raise WrongAlgebraKind(f"no radical description for a {kind} algebra")
    lifted = [_lift(algebra, v) for v in algebra.meta.space.radical()]
    if kind == COVER:
        lifted.append(algebra.basis(algebra.e_dim + 1).raw)  # n
    _verify_ideal(algebra, lifted)
    return tuple(algebra.element(v) for v in lifted)


def _baric(algebra: Algebra) -> int | None:
    """-1 or 2 if alpha is that value, else None: -1 first, as -1 = 2 over F_3."""
    alpha, field = algebra.meta.alpha, algebra.field
    return next((value for value in (-1, 2) if alpha == field.scalar(value)), None)


def _lift(algebra: Algebra, e_vec: Vector) -> tuple:
    """The raw coordinates of the E-vector e_vec in the algebra."""
    zero = zero_one(algebra.field)[0]
    return tuple(raw_values(algebra.field, e_vec)) + (zero, zero)


def is_simple(algebra: Algebra, evidence: NormOneSearch | None = None) -> tuple[bool, str]:
    """Simplicity of the split spin algebra: simple iff b is non-degenerate
    and alpha is outside {-1, 2}.

    The criterion presumes E is spanned by norm-one vectors; the evidence
    must be a NormOneSearch with spans=True, or UnverifiedSpanHypothesis is
    raised.
    """
    if algebra.meta.kind != SPLIT_SPIN:
        raise WrongAlgebraKind("simplicity criterion concerns the split spin algebra")
    if algebra.field.characteristic == 2:
        raise CharTwo("simplicity criterion requires characteristic != 2")
    if evidence is None:
        raise UnverifiedSpanHypothesis("no evidence that norm-one vectors span E")
    if not evidence.spans:
        raise UnverifiedSpanHypothesis(f"norm-one search ({evidence.status}) did not establish a spanning set")
    baric = _baric(algebra)
    if baric is not None:
        return False, BARIC_MINUS_ONE if baric == -1 else BARIC_TWO
    if algebra.meta.space.is_degenerate():
        return False, DEGENERATE_FORM
    return True, SIMPLE


def is_automorphism(algebra: Algebra, m: Matrix) -> bool:
    """Whether the matrix is invertible and multiplicative on basis pairs."""
    if m.rows != algebra.dim or m.cols != algebra.dim:
        raise DimensionMismatch("matrix must be square of the algebra dimension")
    return algebra.check_isomorphism(algebra, m)[0]


def frobenius_s3_invariant(algebra: Algebra, e) -> bool:
    """For one-dimensional E and a norm-one e, the three idempotents
    x, x^-, z1 play symmetric roles: the Frobenius form is invariant under
    all six permutations of that basis."""
    if algebra.meta.kind != SPLIT_SPIN or algebra.e_dim != 1:
        raise WrongAlgebraKind("the permutation invariance concerns dim(E) = 1")
    space = algebra.meta.space
    e = space.vector(e)
    x = family_axis(algebra, e, FAMILY_A)
    x_minus = family_axis(algebra, tuple(-c for c in e), FAMILY_A)
    columns = [x.raw, x_minus.raw, algebra.basis_by_label("z1").raw]
    inverse = Matrix.from_columns(algebra.field, columns).inverse()
    if inverse is None:
        return False
    gram = frobenius(algebra).gram
    mapped = (Matrix.from_columns(algebra.field, perm) @ inverse for perm in itertools.permutations(columns))
    return all(m.transpose() @ gram @ m == gram for m in mapped)


def sample_orthogonal_extension(algebra: Algebra, rng: random.Random) -> Matrix:
    """A random O(E, b)-element extended to the algebra (fixing the z-part)."""
    return extend_orthogonal(algebra, algebra.meta.space.sample_orthogonal(rng))
