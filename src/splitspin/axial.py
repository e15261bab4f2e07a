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
import random
from dataclasses import dataclass
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
    NotNormOne,
    UnverifiedSpanHypothesis,
    WrongAlgebraKind,
    check,
)
from .fields import Field, Scalar
from .idempotents import FAMILY_A, family_axis, is_idempotent
from .linalg import Echelon, Matrix, Vector, cleared, raw_values, zero_one
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

    def __repr__(self):
        vals = ", ".join(str(v) for v in self.eigenvalues)
        return f"FusionLaw({self.kind}: {vals})"


def _check_distinct(named_values: list[tuple[str, Scalar]]):
    for i in range(len(named_values)):
        for j in range(i + 1, len(named_values)):
            n1, v1 = named_values[i]
            n2, v2 = named_values[j]
            if v1 == v2:
                raise EigenvalueCollision(f"{n1} = {v1} collides with {n2} = {v2}")


def jordan_law(field: Field, eta) -> FusionLaw:
    """The Jordan-type law on {1, 0, eta}: eta is the graded eigenvalue."""
    one, zero = field.one(), field.zero()
    eta = field.scalar(eta)
    _check_distinct([("1", one), ("0", zero), ("eta", eta)])
    empty = frozenset()
    table = {
        (one, one): frozenset([one]),
        (one, zero): empty,
        (one, eta): frozenset([eta]),
        (zero, zero): frozenset([zero]),
        (zero, eta): frozenset([eta]),
        (eta, eta): frozenset([one, zero]),
    }
    return FusionLaw(JORDAN, (one, zero, eta), table, frozenset([one, zero]), frozenset([eta]))


def monster_law(field: Field, alpha, beta) -> FusionLaw:
    """The Monster-type law on {1, 0, alpha, beta}: beta is the graded
    eigenvalue, alpha * alpha = {1, 0} and beta * beta = {1, 0, alpha}."""
    one, zero = field.one(), field.zero()
    alpha = field.scalar(alpha)
    beta = field.scalar(beta)
    _check_distinct([("1", one), ("0", zero), ("alpha", alpha), ("beta", beta)])
    empty = frozenset()
    table = {
        (one, one): frozenset([one]),
        (one, zero): empty,
        (one, alpha): frozenset([alpha]),
        (one, beta): frozenset([beta]),
        (zero, zero): frozenset([zero]),
        (zero, alpha): frozenset([alpha]),
        (zero, beta): frozenset([beta]),
        (alpha, alpha): frozenset([one, zero]),
        (alpha, beta): frozenset([beta]),
        (beta, beta): frozenset([one, zero, alpha]),
    }
    return FusionLaw(
        MONSTER,
        (one, zero, alpha, beta),
        table,
        frozenset([one, zero, alpha]),
        frozenset([beta]),
    )


def fusion_law(field: Field, kind: str, params: Sequence) -> FusionLaw:
    if kind == JORDAN:
        (eta,) = params
        return jordan_law(field, eta)
    if kind == MONSTER:
        alpha, beta = params
        return monster_law(field, alpha, beta)
    raise ValueError(f"unknown fusion law kind {kind!r}")


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

    The loop runs on ints, eigenvalues as indices into the law.  Over Q the
    eigenvectors, the structure cells and the rows of B^-1 are scaled by
    nonzero integers to clear their denominators, which changes no support.

    Raises IncompleteDecomposition when the adjoint eigenspaces for the
    law's eigenvalues do not fill the algebra.
    """
    if x.is_zero or not is_idempotent(x):
        raise NotIdempotent("axis candidates must be nonzero idempotents")
    field, n, p = algebra.field, algebra.dim, algebra.field.p
    eigenvalues = law.eigenvalues
    bases = algebra.eigenspaces_raw(x.raw, raw_values(field, eigenvalues))
    dims = {lam: len(basis) for lam, basis in zip(eigenvalues, bases)}
    if sum(dims.values()) != n:
        raise IncompleteDecomposition(
            f"eigenspace dimensions {tuple(dims.values())} sum to "
            f"{sum(dims.values())} < {n}: an eigenvalue lies outside the law",
            dims=dims,
        )
    primitive = dims[eigenvalues[0]] == 1

    # change of basis to the concatenated eigenbasis
    columns = [v for basis in bases for v in basis]
    basis_change = Matrix.from_columns(field, columns)
    inverse = basis_change.inverse()
    check(inverse is not None, "a complete eigenbasis must be a basis", witness=basis_change)
    owner = [a for a, basis in enumerate(bases) for _ in basis]
    plus = [lam in law.plus for lam in eigenvalues]

    cells = algebra.cleared_rows()
    vectors = [[(i, c) for i, c in enumerate(cleared(v)[1]) if c] for v in columns]
    inverse_columns = [[] for _ in range(n)]
    for t, row in enumerate(inverse.raw):
        for k, c in enumerate(cleared(row)[1]):
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
    index = {lam: a for a, lam in enumerate(eigenvalues)}
    found: list[tuple[int, int, int]] = []
    graded = True
    for a, lam in enumerate(eigenvalues):
        for b in range(a, len(eigenvalues)):
            allowed = {index[nu] for nu in law.allowed(lam, eigenvalues[b])}
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
    if graded:
        signed = [v if plus[a] else [-c % p if p else -c for c in v] for a, v in zip(owner, columns)]
        miyamoto_matrix = Matrix.from_columns(field, signed) @ inverse
        check(miyamoto_matrix @ miyamoto_matrix == Matrix.identity(field, n),
              "the grading involution must square to the identity", witness=miyamoto_matrix)
    return AxisReport(
        axis=x,
        law=law,
        dims=dims,
        primitive=primitive,
        violations=violations,
        miyamoto=miyamoto_matrix,
    )


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
    """The four axes x, x^-, 1-x, 1-x^- sharing the Miyamoto involution
    -r_e (extended by the identity on the z-part); each one is verified."""
    if algebra.meta.kind != SPLIT_SPIN:
        raise WrongAlgebraKind("the four-axis property concerns the split spin algebra")
    if algebra.field.characteristic == 2:
        raise CharTwo("axes require characteristic != 2")
    space = algebra.meta.space
    e = space.vector(e)
    if not space.bform(e, e).is_one:
        raise NotNormOne("axes are attached to norm-one vectors")
    alpha = algebra.meta.alpha
    field = algebra.field
    half = field.half()
    law_a = monster_law(field, alpha, half)
    law_b = monster_law(field, field.one() - alpha, half)
    x = family_axis(algebra, e, FAMILY_A)
    x_minus = family_axis(algebra, tuple(-c for c in e), FAMILY_A)
    one_elt = algebra.identity()
    y = one_elt - x
    y_minus = one_elt - x_minus
    expected = extend_orthogonal(algebra, space.neg_reflection(e))
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
        return QuadraticSpace(self.gram).bform(u.raw, v.raw)  # gram is symmetric by construction


def frobenius(algebra: Algebra) -> FrobeniusForm:
    """The Frobenius form of a split spin or cover algebra.

    Split spin: (e, f) = (alpha+1)(2-alpha) b(e, f), (z1, z1) = alpha+1,
    (z2, z2) = 2-alpha, everything else orthogonal.  Cover: (e, f) = 3 b(e, f),
    (z1, z1) = 1, and n is isotropic and orthogonal to everything.

    Associativity is checked exactly on all n^3 basis triples from the
    n(n+1)/2 vectors G (b_j b_t), in O(n^4); the first failing triple
    (i, j, t) in lexicographic order raises VerificationFailed as witness.
    """
    kind = algebra.meta.kind
    if kind not in (SPLIT_SPIN, COVER):
        raise WrongAlgebraKind(f"no Frobenius form constructor for a {kind} algebra")
    field = algebra.field
    space = algebra.meta.space
    k = space.dim
    n = algebra.dim
    if kind == SPLIT_SPIN:
        alpha = algebra.meta.alpha
        e_scale, z_diagonal = (alpha + 1) * (2 - alpha), (alpha + 1, 2 - alpha)
    else:
        e_scale, z_diagonal = field.scalar(3), (field.one(), field.zero())
    rows = [[e_scale * b for b in row] + [0, 0] for row in space.gram.entries]
    rows += [[0] * n, [0] * n]
    rows[k][k], rows[k + 1][k + 1] = z_diagonal
    gram = Matrix(field, rows)
    if not any(map(any, gram.raw)):
        raise BadCharacteristic("the Frobenius form vanishes identically here")

    # (b_i, b_j b_t) = g[j][t][i] and, G being symmetric, (b_i b_j, b_t) = g[i][j][t];
    # raw values, so the n^3 comparisons compare ints or Fractions
    g = [[None] * n for _ in range(n)]
    for j in range(n):
        for t in range(j, n):
            g[j][t] = g[t][j] = gram.apply_sparse(algebra.cell(j, t))
    triples = itertools.product(range(n), repeat=3)
    witness = next(((i, j, t) for i, j, t in triples if g[j][t][i] != g[i][j][t]), None)
    check(witness is None, f"Frobenius associativity fails on basis triple {witness}", witness)
    radical = tuple(algebra.element(v) for v in gram.kernel())
    return FrobeniusForm(algebra, gram, radical)


def _basis_vec(algebra: Algebra, i: int) -> tuple:
    return algebra.basis(i).raw


def _verify_ideal(algebra: Algebra, vectors: Sequence[tuple]) -> None:
    """Raise VerificationFailed, with the first (vector, basis) index pair
    whose product leaves the span, unless the span of the raw vectors is an
    ideal."""
    span = Echelon(algebra.field, vectors)
    units = [_basis_vec(algebra, k) for k in range(algebra.dim)]
    for i, v in enumerate(vectors):
        for k, unit in enumerate(units):
            prod = algebra._mul_coords(v, unit)
            check(span.contains(prod), "radical candidate is not an ideal", (i, k))


def algebra_radical(algebra: Algebra) -> tuple[Element, ...]:
    """Basis of the radical: the lift of E-perp (split spin, alpha outside
    {-1, 2}) or E-perp + <n> (cover).  Raises BaricCase for alpha in {-1, 2},
    carrying the rank-one-form radical E + F z1 (resp. E + F z2)."""
    kind = algebra.meta.kind
    field = algebra.field
    if kind == SPLIT_SPIN:
        alpha = algebra.meta.alpha
        k = algebra.e_dim
        if alpha == field.scalar(-1) or alpha == field.scalar(2):
            which = k if alpha == field.scalar(-1) else k + 1
            vecs = [_basis_vec(algebra, i) for i in range(k)] + [_basis_vec(algebra, which)]
            _verify_ideal(algebra, vecs)
            tag = "alpha=-1" if alpha == field.scalar(-1) else "alpha=2"
            raise BaricCase(tag, tuple(algebra.element(v) for v in vecs))
        lifted = [_lift(algebra, v) for v in algebra.meta.space.radical()]
        _verify_ideal(algebra, lifted)
        return tuple(algebra.element(v) for v in lifted)
    if kind == COVER:
        if field.characteristic in (2, 3):
            raise BadCharacteristic("cover radical requires characteristic outside {2, 3}")
        k = algebra.e_dim
        lifted = [_lift(algebra, v) for v in algebra.meta.space.radical()]
        lifted.append(_basis_vec(algebra, k + 1))  # n
        _verify_ideal(algebra, lifted)
        return tuple(algebra.element(v) for v in lifted)
    raise WrongAlgebraKind(f"no radical description for a {kind} algebra")


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
    ok, _ = algebra.check_isomorphism(algebra, m)
    return ok


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
    z1 = algebra.basis_by_label("z1")
    basis = Matrix.from_columns(algebra.field, [x.raw, x_minus.raw, z1.raw])
    inverse = basis.inverse()
    if inverse is None:
        return False
    gram = frobenius(algebra).gram
    for perm in itertools.permutations(range(3)):
        perm_cols = [basis.column(perm[j]) for j in range(3)]
        mapped = Matrix.from_columns(algebra.field, perm_cols) @ inverse
        if mapped.transpose() @ gram @ mapped != gram:
            return False
    return True


def sample_orthogonal_extension(algebra: Algebra, rng: random.Random) -> Matrix:
    """A random O(E, b)-element extended to the algebra (fixing the z-part)."""
    return extend_orthogonal(algebra, algebra.meta.space.sample_orthogonal(rng))
