"""Fusion laws, axis verification, Miyamoto involutions, Frobenius forms,
radicals and simplicity.

The Monster-type law on {1, 0, alpha, beta} and its Jordan-type sublaw on
{1, 0, eta} are the only laws constructed here.  Axis checking decomposes
the algebra into adjoint eigenspaces for exactly the law's eigenvalues: an
incomplete decomposition is reported as such (it is the signal that the
wrong law was tried), and fusion violations carry the offending eigenvalue
as a witness rather than a bare boolean.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property
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
from .idempotents import (
    FAMILY_A,
    TAG_FAMILY_A,
    TAG_FAMILY_B,
    TAG_FAMILY_EXC,
    TAG_Z1,
    TAG_Z2,
    classes,
    family_axis,
)
from .linalg import Echelon, Matrix, Vector, raw_values, zero_one
from .quadratic import NormOneSearch, QuadraticSpace

JORDAN = "jordan"
MONSTER = "monster"

SIMPLE = "Simple"
DEGENERATE_FORM = "DegenerateForm"
BARIC_MINUS_ONE = "BaricMinusOne"
BARIC_TWO = "BaricTwo"


@dataclass(frozen=True)
class FusionLaw:
    """Eigenvalues with a symmetric product table and a C2-grading."""

    kind: str
    eigenvalues: tuple[Scalar, ...]
    table: dict
    plus: frozenset
    minus: frozenset

    def allowed(self, lam: Scalar, mu: Scalar) -> frozenset:
        key = (lam, mu) if (lam, mu) in self.table else (mu, lam)
        return self.table[key]

    @cached_property
    def allowed_indices(self) -> tuple[tuple[frozenset, ...], ...]:
        """`allowed` on eigenvalue indices: entry [a][b] holds the indices of
        allowed(eigenvalues[a], eigenvalues[b]); built once."""
        index = {lam: a for a, lam in enumerate(self.eigenvalues)}
        return tuple(tuple(frozenset(index[nu] for nu in self.allowed(lam, mu)) for mu in self.eigenvalues)
                     for lam in self.eigenvalues)

    def __repr__(self):
        vals = ", ".join(str(v) for v in self.eigenvalues)
        return f"FusionLaw({self.kind}: {vals})"


def _check_distinct(named_values: list[tuple[str, Scalar]]):
    for (n1, v1), (n2, v2) in itertools.combinations(named_values, 2):
        if v1 == v2:
            raise EigenvalueCollision(f"{n1} = {v1} collides with {n2} = {v2}")


def _law(field: Field, kind: str, named: list[tuple[str, object]]) -> FusionLaw:
    """The law on 1, 0 and the named eigenvalues, the last one graded: 1 and
    0 act as identity and zero, an ungraded value squares into {1, 0} and
    fixes the graded one, and the graded value squares into the plus part."""
    one, zero = field.one(), field.zero()
    named = [(name, field.scalar(value)) for name, value in named]
    _check_distinct([("1", one), ("0", zero), *named])
    *ungraded, graded = [value for _, value in named]
    plus = frozenset([one, zero, *ungraded])
    table = {(one, one): frozenset([one]), (one, zero): frozenset(), (zero, zero): frozenset([zero])}
    for lam in (*ungraded, graded):
        table[one, lam] = table[zero, lam] = frozenset([lam])
    for lam in ungraded:
        table[lam, lam] = frozenset([one, zero])
        table[lam, graded] = frozenset([graded])
    table[graded, graded] = plus
    return FusionLaw(kind, (one, zero, *ungraded, graded), table, plus, frozenset([graded]))


def jordan_law(field: Field, eta) -> FusionLaw:
    """The Jordan-type law on {1, 0, eta}: eta is the graded eigenvalue."""
    return _law(field, JORDAN, [("eta", eta)])


def monster_law(field: Field, alpha, beta) -> FusionLaw:
    """The Monster-type law on {1, 0, alpha, beta}: beta is the graded
    eigenvalue, alpha * alpha = {1, 0} and beta * beta = {1, 0, alpha}."""
    return _law(field, MONSTER, [("alpha", alpha), ("beta", beta)])


def axis_law(algebra: Algebra, tag: str) -> FusionLaw:
    """The fusion law of the axes in one idempotent class: z1 and z2 are of
    Jordan type alpha and 1 - alpha, family (a) and the cover's family of
    Monster type (alpha, 1/2), family (b) of Monster type (1 - alpha, 1/2);
    alpha = -1 on the cover."""
    field, alpha = algebra.field, algebra.meta.alpha
    eta = {TAG_Z1: alpha, TAG_Z2: 1 - alpha,
           TAG_FAMILY_A: alpha, TAG_FAMILY_EXC: alpha, TAG_FAMILY_B: 1 - alpha}
    if tag not in classes(algebra) or tag not in eta:
        raise ValueError(f"no axes of class {tag!r} on the {algebra.meta.kind} algebra")
    if tag in (TAG_Z1, TAG_Z2):
        return jordan_law(field, eta[tag])
    return monster_law(field, eta[tag], field.half())


@dataclass
class AxisReport:
    """Per-axis verdict: eigenspace dimensions, primitivity, fusion
    violations (lambda, mu, offending eigenvalue) and the Miyamoto matrix
    (None when the grading fails to give an automorphism)."""

    axis: Element
    law: FusionLaw
    dims: dict
    primitive: bool
    violations: tuple
    miyamoto: Matrix | None

    @property
    def ok(self) -> bool:
        return self.primitive and not self.violations and self.miyamoto is not None


def check_axis(algebra: Algebra, x: Element, law: FusionLaw) -> AxisReport:
    """Full axis verification of the idempotent x against the law.

    Each eigenbasis product u v (each unordered pair once: the algebra is
    commutative) is written in eigenbasis coordinates once, from the
    nonzero columns of B^-1 at its nonzero coordinates.  Components outside
    the law give the violations (lambda, mu, nu) in order of first
    occurrence; the Miyamoto involution tau = B D B^-1 (plus part fixed,
    minus part negated) is multiplicative exactly when no component has a
    grade other than grade(lambda) grade(mu), and is built only then.

    The loop runs on ints: eigenvalues as indices into the law, the stored
    cells (D times the constants), the integer eigenvectors of
    `eigenspaces_raw` and the right halves of the reduced [B | I], rows of
    B^-1 times their pivot entries q_t over Q; no scale changes a support.
    tau is built on ints too, as L tau for L the lcm of the q_t (1 over
    F_p), checked to square to L^2, and boxed once, entry by entry.

    Raises NotIdempotent unless x is nonzero and in the kernel of ad_x - 1
    (the law's first eigenvalue), and IncompleteDecomposition when the
    adjoint eigenspaces for the law's eigenvalues do not fill the algebra.
    """
    field, n, p = algebra.field, algebra.dim, algebra.field.p
    eigenvalues = law.eigenvalues
    bases = algebra.eigenspaces_raw(x.raw, raw_values(field, eigenvalues))
    if x.is_zero or not Echelon._from_ints(field, bases[0]).contains(x.raw):  # x x = x: x in ker(ad_x - 1)
        raise NotIdempotent("axis candidates must be nonzero idempotents")
    dims = {lam: len(basis) for lam, basis in zip(eigenvalues, bases)}
    if sum(dims.values()) != n:
        raise IncompleteDecomposition(
            f"eigenspace dimensions {tuple(dims.values())} sum to "
            f"{sum(dims.values())} < {n}: an eigenvalue lies outside the law",
            dims=dims,
        )
    primitive = dims[eigenvalues[0]] == 1

    # [B | I] for the concatenated eigenbasis B: row t's right half is row t of B^-1 times a positive int
    columns = [v for basis in bases for v in basis]
    span = Echelon.inverting(field, list(zip(*columns)))
    check(span is not None, "a complete eigenbasis must be a basis", witness=columns)
    owner = [a for a, basis in enumerate(bases) for _ in basis]
    plus = [lam in law.plus for lam in eigenvalues]

    cells = algebra._rows
    vectors = [[(i, c) for i, c in enumerate(v) if c] for v in columns]
    inverse_columns = [[] for _ in range(n)]
    for t, row in enumerate(span.rows):
        for k, c in enumerate(row[n:]):
            if c:
                inverse_columns[k].append((t, c))

    def support(u, v) -> set[int]:
        """The eigenvalue indices of the nonzero eigenbasis coordinates of u v."""
        product: dict[int, int] = {}
        for i, ui in u:
            row = cells[i]
            for j, vj in v:
                cell = row.get(j)
                if cell:
                    w = ui * vj
                    for k, c in cell:
                        product[k] = product.get(k, 0) + w * c
        coords: dict[int, int] = {}
        for k, w in product.items():
            if p:
                w %= p
            if w:
                for t, b in inverse_columns[k]:
                    coords[t] = coords.get(t, 0) + w * b
        return {owner[t] for t, c in coords.items() if (c % p if p else c)}

    blocks = [[t for t, a in enumerate(owner) if a == b] for b in range(len(bases))]
    found: list[tuple[int, int, int]] = []
    graded = True
    for a, allowed_with in enumerate(law.allowed_indices):
        for b, allowed in enumerate(allowed_with[a:], a):
            grade = plus[a] == plus[b]
            for s in blocks[a]:
                for t in blocks[b]:
                    if a == b and t < s:
                        continue
                    nus = support(vectors[s], vectors[t])
                    for nu in sorted(nus - allowed):
                        if (a, b, nu) not in found:
                            found.append((a, b, nu))
                    graded = graded and all(plus[nu] == grade for nu in nus)
    violations = tuple((eigenvalues[a], eigenvalues[b], eigenvalues[nu]) for a, b, nu in found)

    miyamoto_matrix = None
    if graded:  # L tau = sum over t of (+-column t of B)(L / q_t)(right half of row t), L the lcm of the q_t
        scale = math.lcm(*(row[t] for t, row in enumerate(span.rows)))
        tau = [[0] * n for _ in range(n)]
        for t, row in enumerate(span.rows):
            f = scale // row[t] if plus[owner[t]] else -scale // row[t]
            half = [(j, f * c) for j, c in enumerate(row[n:]) if c]
            for i, b in vectors[t]:
                for j, c in half:
                    tau[i][j] += b * c
        tau = [[c % p for c in row] for row in tau] if p else tau
        sparse = [[(j, c) for j, c in enumerate(row) if c] for row in tau]
        for i, row in enumerate(sparse):  # (L tau)^2 = L^2 I, row by row
            square = [-scale * scale if j == i else 0 for j in range(n)]
            for k, a in row:
                for j, c in sparse[k]:
                    square[j] += a * c
            check(not any(c % p if p else c for c in square), "the grading involution must square to the identity",
                  witness=(scale, tau))
        zero = zero_one(field)[0]
        miyamoto_matrix = Matrix._from_raw(field, tau if p else ([Fraction(c, scale) if c else zero for c in row]
                                                                  for row in tau))
    return AxisReport(x, law, dims, primitive, violations, miyamoto_matrix)


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

    Associativity is checked on ints, with F cleared once to s F and
    g[j][t] = s F (D b_j b_t) built once per pair from the stored cells:
    T(i, j, t) = g[j][t][i] = s D (b_i, b_j b_t) is symmetric in j and t, so
    the form associates exactly when g[j][t][i] == g[i][t][j] == g[i][j][t]
    for all i <= j <= t.  Only if that fails, the scan of all n^3 triples
    raises the first failing (i, j, t) in lexicographic order as witness.
    The radical is read off F's blocks: the lift of the radical of b (all of
    E when the E-block's scale vanishes) and each z basis vector of length 0.
    """
    kind = algebra.meta.kind
    if kind not in (SPLIT_SPIN, COVER):
        raise WrongAlgebraKind(f"no Frobenius form constructor for a {kind} algebra")
    field, space = algebra.field, algebra.meta.space
    k, n, p = space.dim, algebra.dim, field.p
    if kind == SPLIT_SPIN:
        a = algebra.meta.alpha.value
        e_scale, z_diagonal = (a + 1) * (2 - a), (a + 1, 2 - a)
    else:
        e_scale, z_diagonal = 3, (1, 0)
    rows = [[e_scale * b for b in row] + [0, 0] for row in space.gram.raw]
    rows += [[0] * k + [z_diagonal[0], 0], [0] * (k + 1) + [z_diagonal[1]]]
    gram = Matrix(field, rows)
    if not any(map(any, gram.raw)):
        raise BadCharacteristic("the Frobenius form vanishes identically here")

    # g[j][t][i] = s D (b_i, b_j b_t) and, F being symmetric, g[i][j][t] = s D (b_i b_j, b_t)
    columns = [[] for _ in range(n)]  # column c's nonzero (i, s F_ic), from the terms of F on ints
    for i, j, c in QuadraticSpace(gram)._terms:
        columns[j].append((i, c))
        columns[i] += [(j, c)] if i != j else []
    g = [[None] * n for _ in range(n)]
    for j, t in itertools.combinations_with_replacement(range(n), 2):
        out = [0] * n
        for c, d in algebra.cell(j, t):
            for i, a in columns[c]:
                out[i] += a * d
        g[j][t] = g[t][j] = [x % p for x in out] if p else out
    if not all(list(map(operator.itemgetter(i), g[j][j:])) == list(map(operator.itemgetter(j), g[i][j:])) == g[i][j][j:]
               for i, j in itertools.combinations_with_replacement(range(n), 2)):
        witness = next((i, j, t) for i, j, t in itertools.product(range(n), repeat=3) if g[j][t][i] != g[i][j][t])
        raise VerificationFailed(f"Frobenius associativity fails on basis triple {witness}", witness)
    e_radical = space.radical() if raw_values(field, (e_scale,))[0] else Matrix.identity(field, k).raw
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
    field = algebra.field
    if kind == SPLIT_SPIN:
        alpha, k = algebra.meta.alpha, algebra.e_dim
        if alpha in (field.scalar(-1), field.scalar(2)):
            which, tag = (k, "alpha=-1") if alpha == field.scalar(-1) else (k + 1, "alpha=2")
            vecs = [algebra.basis(i).raw for i in (*range(k), which)]
            _verify_ideal(algebra, vecs)
            raise BaricCase(tag, tuple(algebra.element(v) for v in vecs))
    elif kind == COVER:
        if field.characteristic in (2, 3):
            raise BadCharacteristic("cover radical requires characteristic outside {2, 3}")
    else:
        raise WrongAlgebraKind(f"no radical description for a {kind} algebra")
    lifted = [_lift(algebra, v) for v in algebra.meta.space.radical()]
    if kind == COVER:
        lifted.append(algebra.basis(algebra.e_dim + 1).raw)  # n
    _verify_ideal(algebra, lifted)
    return tuple(algebra.element(v) for v in lifted)


def _lift(algebra: Algebra, e_vec: Vector) -> tuple:
    """The raw coordinates of the E-vector e_vec in the algebra."""
    zero = zero_one(algebra.field)[0]
    return tuple(raw_values(algebra.field, e_vec)) + (zero, zero)


def is_simple(
    algebra: Algebra,
    evidence: NormOneSearch | None = None,
    assume_spanned: bool = False,
) -> tuple[bool, str]:
    """Simplicity of the split spin algebra: simple iff b is non-degenerate
    and alpha is outside {-1, 2}.

    The criterion presumes E is spanned by norm-one vectors; pass a
    NormOneSearch with spans=True as evidence, or assume_spanned=True to
    assert it.
    """
    if algebra.meta.kind != SPLIT_SPIN:
        raise WrongAlgebraKind("simplicity criterion concerns the split spin algebra")
    if algebra.field.characteristic == 2:
        raise CharTwo("simplicity criterion requires characteristic != 2")
    if not assume_spanned:
        if evidence is None:
            raise UnverifiedSpanHypothesis("no evidence that norm-one vectors span E")
        if not evidence.spans:
            raise UnverifiedSpanHypothesis(
                f"norm-one search ({evidence.status}) did not establish a spanning set"
            )
    field = algebra.field
    alpha = algebra.meta.alpha
    if alpha == field.scalar(-1):
        return False, BARIC_MINUS_ONE
    if alpha == field.scalar(2):
        return False, BARIC_TWO
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
