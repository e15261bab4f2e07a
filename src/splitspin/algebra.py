"""Structure-constant commutative algebras and the three constructors used
throughout the package:

* the split spin factor S(b, alpha) on E + F z1 + F z2, where z1, z2 are
  idempotents splitting the identity, e z1 = alpha e, e z2 = (1 - alpha) e
  and e f = -b(e, f) z with z = alpha (alpha - 2) z1 + (alpha - 1)(alpha + 1) z2;
* its exceptional nil cover on E + F z1 + F n with n annihilating the whole
  algebra, e z1 = -e and e f = -b(e, f)(3 z1 - 2 n);
* the three-idempotent algebra 3C(alpha) with pairwise products
  x y = (alpha / 2)(x + y - z).

Construction never rejects degenerate parameters: characteristic-two and
Jordan-special values of alpha are recorded on the meta tag, and the axial
operations that genuinely need the exclusions enforce them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    AlgebraMismatch,
    CapExceeded,
    CharTwo,
    DimensionMismatch,
    DuplicateCandidates,
    FieldMismatch,
    NotAnIdeal,
    check,
)
from .fields import Field, Scalar
from .linalg import Echelon, Matrix, Vector, basis_vector, vec_is_zero, zero_vector
from .quadratic import QuadraticSpace

SPLIT_SPIN = "split_spin"
COVER = "cover"
MATSUO_3C = "matsuo_3c"
DERIVED = "derived"


@dataclass(frozen=True)
class AlgebraMeta:
    kind: str
    alpha: Scalar | None = None
    space: QuadraticSpace | None = None
    jordan_special: bool = False
    warnings: tuple[str, ...] = ()


class Element:
    """A vector of coordinates in the basis of its owning algebra."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords: Vector):
        self.algebra = algebra
        self.coords = coords

    def _check(self, other: Element):
        if other.algebra is not self.algebra:
            raise AlgebraMismatch("elements belong to different algebras")

    def __add__(self, other: Element) -> Element:
        self._check(other)
        return Element(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: Element) -> Element:
        self._check(other)
        return Element(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> Element:
        return Element(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            return self.algebra.multiply(self, other)
        scalar = self.algebra.field.scalar(other)
        return Element(self.algebra, tuple(scalar * a for a in self.coords))

    def __rmul__(self, other):
        if isinstance(other, Element):
            return NotImplemented
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return other.algebra is self.algebra and other.coords == self.coords

    def __hash__(self):
        return hash((id(self.algebra), self.coords))

    @property
    def is_zero(self) -> bool:
        return vec_is_zero(self.coords)

    def __repr__(self):
        parts = [
            f"{c}*{label}" if not c.is_one else label
            for c, label in zip(self.coords, self.algebra.labels)
            if c
        ]
        return " + ".join(parts) if parts else "0"


class Algebra:
    """A commutative algebra given by basis labels and structure constants.

    The structure table stores, for every ordered basis pair (i, j), the
    coordinate vector of b_i b_j; it is validated to be symmetric in i, j.
    """

    __slots__ = ("field", "labels", "table", "meta")

    def __init__(
        self,
        field: Field,
        labels: Sequence[str],
        table: Sequence[Sequence[Sequence]],
        meta: AlgebraMeta,
    ):
        n = len(labels)
        if n == 0:
            raise ValueError("algebra must have positive dimension")
        rows = tuple(
            tuple(tuple(field.scalar(c) for c in cell) for cell in row) for row in table
        )
        if len(rows) != n or any(len(row) != n for row in rows) or any(
            len(cell) != n for row in rows for cell in row
        ):
            raise DimensionMismatch("structure table shape does not match basis size")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"structure constants not commutative at pair ({i}, {j})")
        self.field = field
        self.labels = tuple(labels)
        self.table = rows
        self.meta = meta

    # -- basic structure -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.labels)

    def label_index(self, label: str) -> int:
        return self.labels.index(label)

    def element(self, coords: Sequence) -> Element:
        v = tuple(self.field.scalar(c) for c in coords)
        if len(v) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates")
        return Element(self, v)

    def basis(self, i: int) -> Element:
        return Element(self, basis_vector(self.field, self.dim, i))

    def basis_by_label(self, label: str) -> Element:
        return self.basis(self.label_index(label))

    def zero(self) -> Element:
        return Element(self, zero_vector(self.field, self.dim))

    def from_labels(self, coeffs: dict) -> Element:
        coords = [self.field.zero()] * self.dim
        for label, value in coeffs.items():
            coords[self.label_index(label)] = self.field.scalar(value)
        return Element(self, tuple(coords))

    @property
    def e_dim(self) -> int:
        """Dimension of the quadratic part E (split spin and cover only)."""
        if self.meta.space is None:
            raise ValueError("algebra has no quadratic part")
        return self.meta.space.dim

    def e_part(self, x: Element) -> Vector:
        """The E-coordinates of an element of a split spin or cover algebra."""
        return x.coords[: self.e_dim]

    # -- multiplication ------------------------------------------------------

    def _mul_coords(self, u: Vector, v: Vector) -> Vector:
        n = self.dim
        acc = [self.field.zero()] * n
        for i in range(n):
            ui = u[i]
            if not ui:
                continue
            row = self.table[i]
            for j in range(n):
                vj = v[j]
                if not vj:
                    continue
                c = ui * vj
                cell = row[j]
                for k in range(n):
                    if cell[k]:
                        acc[k] = acc[k] + c * cell[k]
        return tuple(acc)

    def multiply(self, u: Element, v: Element) -> Element:
        if u.algebra is not self or v.algebra is not self:
            raise AlgebraMismatch("elements belong to a different algebra")
        return Element(self, self._mul_coords(u.coords, v.coords))

    def adjoint(self, a: Element) -> Matrix:
        """Matrix of v -> a v in the algebra basis."""
        cols = [self._mul_coords(a.coords, basis_vector(self.field, self.dim, j)) for j in range(self.dim)]
        return Matrix.from_columns(self.field, cols)

    # -- eigenstructure ------------------------------------------------------

    def eigendecompose(
        self, a: Element, candidates: Sequence
    ) -> tuple[dict[Scalar, tuple[Element, ...]], bool]:
        """Kernels of ad_a - lambda for each candidate eigenvalue.

        Returns the eigenspace bases keyed by candidate, plus a completeness
        flag that is true iff the dimensions sum to dim(A).
        """
        values = [self.field.scalar(c) for c in candidates]
        if len(set(values)) != len(values):
            raise DuplicateCandidates("candidate eigenvalues must be pairwise distinct")
        ad = self.adjoint(a).raw
        spaces: dict[Scalar, tuple[Element, ...]] = {}
        total = 0
        for lam in values:
            shifted = [[x - lam.value if i == j else x for j, x in enumerate(row)]
                       for i, row in enumerate(ad)]
            basis = Matrix(self.field, shifted).kernel()
            spaces[lam] = tuple(Element(self, v) for v in basis)
            total += len(basis)
        return spaces, total == self.dim

    def identity(self) -> Element | None:
        """The multiplicative identity, or None if no element satisfies
        u b_i = b_i for every basis vector b_i."""
        n = self.dim
        one, zero = self.field.one(), self.field.zero()
        rows, rhs = [], []
        for i in range(n):
            for k in range(n):
                rows.append([self.table[j][i][k] for j in range(n)])
                rhs.append(one if k == i else zero)
        sol = Matrix(self.field, rows).solve(rhs)
        return None if sol is None else self.element(sol)

    # -- subalgebras and quotients --------------------------------------------

    def subalgebra(self, generators: Sequence[Element], cap: int | None = None) -> SubalgebraResult:
        """Close the span of the generators under products.

        The sub-basis is greedy: generators first (independent ones kept in
        order), then products as they appear.  The closure degree records how
        many rounds of products were needed (1 means the generators already
        span a subalgebra).
        """
        cap = self.dim if cap is None else cap
        span = Echelon(self.field)
        basis: list[Vector] = []

        def try_add(vec: Vector) -> bool:
            if not span.add(vec):
                return False
            if span.rank > cap:
                raise CapExceeded(f"subalgebra closure exceeded cap {cap}")
            basis.append(vec)
            return True

        for g in generators:
            if g.algebra is not self:
                raise AlgebraMismatch("generator from a different algebra")
            try_add(g.coords)
        if not basis:
            raise ValueError("need at least one nonzero generator")

        # a pair multiplied in an earlier round already lies in the span
        products: dict[tuple[int, int], Vector] = {}
        degree = 1
        while True:
            added = False
            m = len(basis)  # products found this round wait for the next
            for i in range(m):
                for j in range(i, m):
                    if (i, j) not in products:
                        products[i, j] = self._mul_coords(basis[i], basis[j])
                        added = try_add(products[i, j]) or added
            if not added:
                break
            degree += 1

        embedding = Matrix.from_columns(self.field, basis)
        sub_table = [[None] * m for _ in range(m)]
        for (i, j), prod in products.items():
            coords = span.coordinates(prod)
            check(coords is not None, "subalgebra closure misses a product", (i, j))
            sub_table[i][j] = sub_table[j][i] = coords
        labels = tuple(f"s{i + 1}" for i in range(m))
        sub = Algebra(self.field, labels, sub_table, AlgebraMeta(DERIVED))
        return SubalgebraResult(sub, embedding, degree)

    def quotient(self, ideal: Sequence[Element]) -> QuotientResult:
        """Quotient by the span of the given elements.

        The span is verified to be an ideal first; the quotient basis is the
        set of standard basis vectors at the non-pivot coordinates of the
        ideal's echelon form, so quotient labels are inherited from ambient.
        """
        for x in ideal:
            if x.algebra is not self:
                raise AlgebraMismatch("ideal element from a different algebra")
        n = self.dim
        span = Echelon(self.field, (x.coords for x in ideal))
        ideal_rows, pivots = span.rref()
        for v in ideal_rows:
            for k in range(n):
                prod = self._mul_coords(v, basis_vector(self.field, n, k))
                if not span.contains(prod):
                    raise NotAnIdeal(
                        f"span not closed under multiplication by basis vector {self.labels[k]}"
                    )
        free = [c for c in range(n) if c not in set(pivots)]
        columns = [list(v) for v in ideal_rows] + [basis_vector(self.field, n, f) for f in free]
        change = Matrix.from_columns(self.field, columns)
        inverse = change.inverse()
        check(inverse is not None, "ideal rows and free basis vectors do not form a basis", pivots)
        r = len(ideal_rows)
        projection = Matrix(self.field, inverse.raw[r:]) if free else None
        if projection is None:
            raise ValueError("quotient by the whole algebra is empty")
        q_table = [
            [projection.apply(self.table[free[i]][free[j]]) for j in range(len(free))]
            for i in range(len(free))
        ]
        labels = tuple(self.labels[f] for f in free)
        quot = Algebra(self.field, labels, q_table, AlgebraMeta(DERIVED))
        return QuotientResult(quot, projection)

    # -- isomorphism checking --------------------------------------------------

    def check_isomorphism(self, other: Algebra, mapping: Matrix) -> tuple[bool, tuple[int, int] | None]:
        """Whether the matrix (columns = images of this basis in the other
        algebra) is an algebra isomorphism.  Returns the first failing basis
        pair as a witness, or None when the map is singular or correct."""
        if self.field != other.field:
            raise FieldMismatch("algebras over different fields")
        if self.dim != other.dim or mapping.rows != self.dim or mapping.cols != self.dim:
            raise DimensionMismatch("mapping must be square of the common dimension")
        if mapping.rank() < self.dim:
            return False, None
        cols = [mapping.column(j) for j in range(self.dim)]
        for i in range(self.dim):
            for j in range(i, self.dim):
                lhs = mapping.apply(self.table[i][j])
                rhs = other._mul_coords(cols[i], cols[j])
                if lhs != rhs:
                    return False, (i, j)
        return True, None

    def __repr__(self):
        return f"Algebra({self.meta.kind}, dim={self.dim}, field={self.field!r})"


@dataclass
class SubalgebraResult:
    algebra: Algebra
    embedding: Matrix  # ambient-dim x sub-dim; columns are the sub-basis
    closure_degree: int


@dataclass
class QuotientResult:
    algebra: Algebra
    projection: Matrix  # quotient-dim x ambient-dim


# -- constructors --------------------------------------------------------------


def split_spin(space: QuadraticSpace, alpha) -> Algebra:
    """The split spin factor algebra on E + F z1 + F z2."""
    field = space.field
    alpha = field.scalar(alpha)
    k = space.dim
    n = k + 2
    zero, one = field.zero(), field.one()
    z1, z2 = k, k + 1
    c1 = alpha * (alpha - 2)
    c2 = (alpha - 1) * (alpha + 1)

    def unit(i: int, s: Scalar) -> Vector:
        coords = [zero] * n
        coords[i] = s
        return tuple(coords)

    zero_vec = tuple([zero] * n)
    table: list[list[Vector]] = [[zero_vec] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            b = space.gram.entries[i][j]
            coords = [zero] * n
            coords[z1] = -b * c1
            coords[z2] = -b * c2
            table[i][j] = tuple(coords)
        table[i][z1] = table[z1][i] = unit(i, alpha)
        table[i][z2] = table[z2][i] = unit(i, one - alpha)
    table[z1][z1] = unit(z1, one)
    table[z2][z2] = unit(z2, one)

    labels = tuple(f"e{i + 1}" for i in range(k)) + ("z1", "z2")
    jordan_special = alpha.is_zero or alpha.is_one
    warnings = ()
    if field.characteristic == 2:
        warnings = ("characteristic_two",)
    elif alpha == field.half():
        jordan_special = True
    meta = AlgebraMeta(SPLIT_SPIN, alpha=alpha, space=space, jordan_special=jordan_special, warnings=warnings)
    return Algebra(field, labels, table, meta)


def exceptional_cover(space: QuadraticSpace) -> Algebra:
    """The nil cover on E + F z1 + F n: n annihilates everything,
    e z1 = -e and e f = -b(e, f)(3 z1 - 2 n)."""
    field = space.field
    k = space.dim
    n_dim = k + 2
    zero, one = field.zero(), field.one()
    z1, nil = k, k + 1
    three = field.scalar(3)
    minus_two = field.scalar(-2)

    def unit(i: int, s: Scalar) -> Vector:
        coords = [zero] * n_dim
        coords[i] = s
        return tuple(coords)

    zero_vec = tuple([zero] * n_dim)
    table: list[list[Vector]] = [[zero_vec] * n_dim for _ in range(n_dim)]
    for i in range(k):
        for j in range(k):
            b = space.gram.entries[i][j]
            coords = [zero] * n_dim
            coords[z1] = -b * three
            coords[nil] = -b * minus_two
            table[i][j] = tuple(coords)
        table[i][z1] = table[z1][i] = unit(i, -one)
    table[z1][z1] = unit(z1, one)

    labels = tuple(f"e{i + 1}" for i in range(k)) + ("z1", "n")
    warnings = ()
    if field.characteristic == 2:
        warnings = ("characteristic_two",)
    elif field.characteristic == 3:
        warnings = ("characteristic_three",)
    meta = AlgebraMeta(COVER, alpha=field.scalar(-1), space=space, warnings=warnings)
    return Algebra(field, labels, table, meta)


def matsuo_3c(field: Field, alpha) -> Algebra:
    """The three-dimensional algebra 3C(alpha) on idempotents a, b, c with
    pairwise products (alpha / 2)(sum of the pair minus the third)."""
    if field.characteristic == 2:
        raise CharTwo("3C(alpha) requires characteristic != 2")
    alpha = field.scalar(alpha)
    half_alpha = alpha / 2
    zero, one = field.zero(), field.one()

    def pair(i: int, j: int) -> Vector:
        coords = [half_alpha] * 3
        coords[3 - i - j] = -half_alpha
        return tuple(coords)

    def unit(i: int) -> Vector:
        coords = [zero] * 3
        coords[i] = one
        return tuple(coords)

    table = [[unit(i) if i == j else pair(i, j) for j in range(3)] for i in range(3)]
    meta = AlgebraMeta(MATSUO_3C, alpha=alpha)
    return Algebra(field, ("a", "b", "c"), table, meta)
