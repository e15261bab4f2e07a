"""Structure-constant commutative algebras and the three constructors used
throughout the package:

* the split spin factor S(b, alpha) on E + F z1 + F z2, where z1, z2 are
  idempotents splitting the identity, e z1 = alpha e, e z2 = (1 - alpha) e
  and e f = -b(e, f) z with z = alpha (alpha - 2) z1 + (alpha - 1)(alpha + 1) z2;
* its exceptional nil cover on E + F z1 + F n with n annihilating the whole
  algebra, e z1 = -e and e f = -b(e, f)(3 z1 - 2 n);
* the three-idempotent algebra 3C(alpha) with pairwise products
  x y = (alpha / 2)(x + y - z).

Construction never rejects degenerate parameters: the meta tag records a
characteristic-two warning and reports a Jordan-special alpha, and the
axial operations that genuinely need the exclusions enforce them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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
from .linalg import Echelon, Matrix, Vector, _reduced, boxed, cleared, raw_values, zero_one
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
    warnings: tuple[str, ...] = ()

    @property
    def jordan_special(self) -> bool:
        """Whether this is a split spin or cover algebra at a Jordan-special alpha."""
        return self.kind in (SPLIT_SPIN, COVER) and self.alpha is not None and is_jordan_special(self.alpha)


class Element:
    """A vector of coordinates in the basis of its owning algebra.

    The coordinates are stored raw in `raw`: int residues in [0, p) over
    F_p, Fractions over Q.  `coords`, the Scalar view, is built on first use.
    """

    __slots__ = ("algebra", "raw", "_coords")

    def __init__(self, algebra: Algebra, raw: Sequence):
        self.algebra = algebra
        self.raw = tuple(raw)
        self._coords = None

    @property
    def coords(self) -> Vector:
        """The coordinates as Scalars, built once."""
        if self._coords is None:
            self._coords = boxed(self.algebra.field, self.raw)
        return self._coords

    def _check(self, other: Element):
        if other.algebra is not self.algebra:
            raise AlgebraMismatch("elements belong to different algebras")

    def __add__(self, other: Element) -> Element:
        self._check(other)
        p = self.algebra.field.p
        return Element(self.algebra, _reduced(p, (a + b for a, b in zip(self.raw, other.raw))))

    def __sub__(self, other: Element) -> Element:
        self._check(other)
        p = self.algebra.field.p
        return Element(self.algebra, _reduced(p, (a - b for a, b in zip(self.raw, other.raw))))

    def __neg__(self) -> Element:
        return Element(self.algebra, _reduced(self.algebra.field.p, (-a for a in self.raw)))

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check(other)
            return self.algebra.multiply(self, other)
        field = self.algebra.field
        (scalar,) = raw_values(field, (other,))
        return Element(self.algebra, _reduced(field.p, (scalar * a for a in self.raw)))

    def __rmul__(self, other):
        if isinstance(other, Element):
            return NotImplemented
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return other.algebra is self.algebra and other.raw == self.raw

    def __hash__(self):
        return hash((id(self.algebra), self.raw))

    @property
    def is_zero(self) -> bool:
        return not any(self.raw)

    def __repr__(self):
        parts = [
            f"{c}*{label}" if not c.is_one else label
            for c, label in zip(self.coords, self.algebra.labels)
            if c
        ]
        return " + ".join(parts) if parts else "0"


class Algebra:
    """A commutative algebra given by basis labels and structure constants.

    The constants are (i, j, k, value) entries, value being the coefficient
    of b_k in b_i b_j, in either order of i and j; absent entries are zero.
    Each unordered pair's nonzero (k, c) pairs are stored once, shared by
    the rows of i and j: c is the int D times the constant, D being the
    least common multiple of the constants' denominators over Q (and 1 over
    F_p, where c is the residue), and readers divide by D once per entry.
    """

    __slots__ = ("field", "labels", "_rows", "denominator", "meta")

    def __init__(
        self,
        field: Field,
        labels: Sequence[str],
        constants: Iterable[Sequence],
        meta: AlgebraMeta,
    ):
        n = len(labels)
        if n == 0:
            raise ValueError("algebra must have positive dimension")
        values: dict[tuple[int, int, int], object] = {}
        for i, j, k, value in constants:
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise DimensionMismatch(f"structure constant index {(i, j, k)} outside range({n})")
            key = (min(i, j), max(i, j), k)
            (c,) = raw_values(field, (value,))
            if values.setdefault(key, c) != c:
                raise ValueError(f"conflicting structure constants at {key}")
        d = 1 if field.p else math.lcm(*(c.denominator for c in values.values()))
        rows: list[dict[int, list]] = [{} for _ in range(n)]
        for (i, j, k), c in sorted(values.items()):  # (i, j) order, so each row's keys ascend
            if c:
                cell = rows[i].setdefault(j, [])
                cell.append((k, c if field.p else c.numerator * (d // c.denominator)))
                rows[j][i] = cell
        self.field = field
        self.labels = tuple(labels)
        self._rows = rows
        self.denominator = d
        self.meta = meta

    # -- basic structure -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.labels)

    def label_index(self, label: str) -> int:
        return self.labels.index(label)

    def element(self, coords: Sequence) -> Element:
        v = raw_values(self.field, coords)
        if len(v) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates")
        return Element(self, v)

    def basis(self, i: int) -> Element:
        zero, one = zero_one(self.field)
        v = [zero] * self.dim
        v[i] = one
        return Element(self, v)

    def basis_by_label(self, label: str) -> Element:
        return self.basis(self.label_index(label))

    def zero(self) -> Element:
        return Element(self, [zero_one(self.field)[0]] * self.dim)

    def from_labels(self, coeffs: dict) -> Element:
        coords = [zero_one(self.field)[0]] * self.dim
        for label, value in coeffs.items():
            (coords[self.label_index(label)],) = raw_values(self.field, (value,))
        return Element(self, coords)

    @property
    def e_dim(self) -> int:
        """Dimension of the quadratic part E (split spin and cover only)."""
        if self.meta.space is None:
            raise ValueError("algebra has no quadratic part")
        return self.meta.space.dim

    def e_part(self, x: Element) -> Vector:
        """The E-coordinates of an element of a split spin or cover algebra."""
        return x.coords[: self.e_dim]

    # -- structure constants ---------------------------------------------------

    @property
    def constants(self) -> tuple[tuple[int, int, int, Scalar], ...]:
        """The nonzero (i, j, k, b_k-coefficient of b_i b_j) entries with
        i <= j, in (i, j, k) order: the interchange form."""
        field, d = self.field, self.denominator
        return tuple(
            (i, j, k, Scalar(field, c if field.p else Fraction(c, d)))
            for i, row in enumerate(self._rows)
            for j, cell in row.items()
            if j >= i
            for k, c in cell
        )

    def cell(self, i: int, j: int) -> Sequence[tuple[int, int]]:
        """The stored nonzero (k, D c) pairs of b_i b_j, D the `denominator`."""
        return self._rows[i].get(j, ())

    def _from_cells(self, sums: Iterable) -> tuple:
        """Sums of products with the stored cells as raw values: reduced mod
        p over F_p, divided by D over Q."""
        p, d = self.field.p, self.denominator
        if p:
            return tuple([a % p for a in sums])
        return tuple([a / d if a else a for a in sums]) if d != 1 else tuple(sums)

    # -- multiplication ------------------------------------------------------

    def _mul_coords(self, u: Sequence, v: Sequence) -> tuple:
        """The raw coordinates of u v, for raw coordinate vectors u and v."""
        rows = self._rows
        acc = [zero_one(self.field)[0]] * self.dim
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, cell in rows[i].items():
                vj = v[j]
                if vj:
                    w = ui * vj
                    for k, c in cell:
                        acc[k] += w * c
        return self._from_cells(acc)

    def multiply(self, u: Element, v: Element) -> Element:
        if u.algebra is not self or v.algebra is not self:
            raise AlgebraMismatch("elements belong to a different algebra")
        return Element(self, self._mul_coords(u.raw, v.raw))

    def adjoint(self, a: Element) -> Matrix:
        """Matrix of v -> a v in the algebra basis."""
        (du, u), p = cleared(a.raw), self.field.p
        d = du * self.denominator
        return Matrix._from_raw(self.field, ([x % p if p else Fraction(x, d) for x in row]
                                             for row in self._adjoint_raw(u)))

    def _adjoint_raw(self, u: Sequence[int]) -> list[list[int]]:
        """The rows of D ad_u for the int coordinates u, from the stored
        cells, unreduced: entry (k, j) is D times the b_k-coefficient of u b_j."""
        n = self.dim
        ad = [[0] * n for _ in range(n)]
        for i, ui in enumerate(u):
            if ui:
                for j, cell in self._rows[i].items():
                    for k, c in cell:
                        ad[k][j] += ui * c
        return ad

    # -- eigenstructure ------------------------------------------------------

    def eigenspaces_raw(self, u: Sequence, values: Sequence) -> list[list[list[int]]]:
        """Bases of the kernels of ad_u - lambda, one per raw lambda = a / q
        in values (q = 1 over F_p), for the raw coordinates u, cleared once
        to the ints du u: the `Echelon.kernel` of the int rows q D du ad_u -
        a D du I, each a positive multiple of the vector with a unit entry at
        its free column over Q.  One path over Q and F_p, where du = 1."""
        if len(set(values)) != len(values):
            raise DuplicateCandidates("candidate eigenvalues must be pairwise distinct")
        (du, u), p, n = cleared(u), self.field.p, self.dim
        ad, scale = self._adjoint_raw(u), du * self.denominator
        bases = []
        for a, q in (lam.as_integer_ratio() for lam in values):
            shifted = (_reduced(p, (q * x - a * scale if j == k else q * x for j, x in enumerate(row)))
                       for k, row in enumerate(ad))
            bases.append(Echelon._from_ints(self.field, shifted).kernel(n))
        return bases

    def identity(self) -> Element | None:
        """The multiplicative identity, or None if no element satisfies
        u b_i = b_i for every basis vector b_i.

        Equation (i, k), sum_j u_j (b_k-coefficient of b_j b_i) = [k == i]
        times D, is read off the stored cells as an augmented row and
        reduced into one echelon basis; a pivot on the right-hand side means
        no solution.  An identity is unique when it exists, so a consistent
        system has full rank and u is the last column of the reduced rows.
        """
        if not all(self._rows):
            return None  # u b_i = 0 for a b_i whose products all vanish
        n = self.dim
        span = Echelon(self.field)
        for i, row in enumerate(self._rows):
            equations = {i: [0] * n + [self.denominator]}  # only the equations with a nonzero entry, as ints
            for j, cell in row.items():
                for k, c in cell:
                    equations.setdefault(k, [0] * (n + 1))[j] = c
            for equation in equations.values():
                if span._insert(equation) and span.pivots[-1] == n:
                    return None
        check(span.rank == n, "a consistent identity system is not of full rank", span.rank)
        return Element(self, [row[n] for row in span.unit_rows()])

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
        basis: list[tuple] = []  # raw

        def try_add(vec: tuple) -> bool:
            if not span.add(vec):
                return False
            if span.rank > cap:
                raise CapExceeded(f"subalgebra closure exceeded cap {cap}")
            basis.append(vec)
            return True

        for g in generators:
            if g.algebra is not self:
                raise AlgebraMismatch("generator from a different algebra")
            try_add(g.raw)
        if not basis:
            raise ValueError("need at least one nonzero generator")

        # a pair multiplied in an earlier round already lies in the span
        products: dict[tuple[int, int], tuple] = {}
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
        # a vector of the span is fixed by its entries at the pivots
        pivots = span.pivots
        inverse = Matrix._from_raw(self.field, ([b[c] for b in basis] for c in pivots)).inverse()
        constants = []
        for (i, j), prod in products.items():
            check(span.contains(prod), "subalgebra closure misses a product", (i, j))
            coords = inverse.apply_raw([prod[c] for c in pivots])
            constants += [(i, j, t, c) for t, c in enumerate(coords) if c]
        labels = tuple(f"s{i + 1}" for i in range(m))
        sub = Algebra(self.field, labels, constants, AlgebraMeta(DERIVED))
        return SubalgebraResult(sub, embedding, degree)

    def ideal_witness(self, vectors: Sequence[Sequence]) -> tuple[int, int] | None:
        """The first (vector, basis) index pair (i, k) whose product v_i b_k
        leaves the span of the raw vectors, or None when the span is an ideal."""
        span = Echelon(self.field, vectors)
        units = [self.basis(k).raw for k in range(self.dim)]
        return next(((i, k) for i, v in enumerate(vectors) for k, unit in enumerate(units)
                     if not span.contains(self._mul_coords(v, unit))), None)

    def quotient(self, ideal: Sequence[Element]) -> QuotientResult:
        """Quotient by the span of the given elements.

        The span is verified to be an ideal first; the quotient basis is the
        set of standard basis vectors at the non-pivot coordinates of the
        ideal's echelon form, so quotient labels are inherited from ambient.
        """
        for x in ideal:
            if x.algebra is not self:
                raise AlgebraMismatch("ideal element from a different algebra")
        raws = [x.raw for x in ideal]
        witness = self.ideal_witness(raws)
        if witness is not None:
            raise NotAnIdeal(f"span not closed under multiplication by basis vector {self.labels[witness[1]]}")
        span = Echelon(self.field, raws)
        ideal_rows, pivots = span.unit_rows(), span.pivots
        free = [c for c in range(self.dim) if c not in set(pivots)]
        if not free:
            raise ValueError("quotient by the whole algebra is empty")
        change = Matrix.from_columns(self.field, ideal_rows + [self.basis(f).raw for f in free])
        inverse = change.inverse()
        check(inverse is not None, "ideal rows and free basis vectors do not form a basis", pivots)
        projection = Matrix._from_raw(self.field, inverse.raw[len(ideal_rows):])
        constants = [
            (a, b, t, c)
            for a in range(len(free))
            for b in range(a, len(free))
            for t, c in enumerate(self._from_cells(projection.apply_sparse(self.cell(free[a], free[b]))))
            if c
        ]
        labels = tuple(self.labels[f] for f in free)
        quot = Algebra(self.field, labels, constants, AlgebraMeta(DERIVED))
        return QuotientResult(quot, projection)

    # -- isomorphism checking --------------------------------------------------

    def check_isomorphism(self, other: Algebra, mapping: Matrix) -> tuple[bool, tuple[int, int] | None]:
        """Whether the matrix (columns = images of this basis in the other
        algebra) is an algebra isomorphism.  Returns the first failing basis
        pair as a witness, or None when the map is singular or correct."""
        if self.field != other.field:
            raise FieldMismatch("algebras over different fields")
        if mapping.field != self.field:
            raise FieldMismatch(f"mapping over {mapping.field!r} for algebras over {self.field!r}")
        if self.dim != other.dim or mapping.rows != self.dim or mapping.cols != self.dim:
            raise DimensionMismatch("mapping must be square of the common dimension")
        if mapping.rank() < self.dim:
            return False, None
        cols = list(zip(*mapping.raw))
        for i in range(self.dim):
            for j in range(i, self.dim):
                if self._from_cells(mapping.apply_sparse(self.cell(i, j))) != other._mul_coords(cols[i], cols[j]):
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


def is_jordan_special(alpha: Scalar) -> bool:
    """Whether alpha is 0, 1, or 1/2 outside characteristic 2: the values at
    which the classification of idempotents and axes does not apply."""
    field = alpha.field
    return alpha.is_zero or alpha.is_one or (field.characteristic != 2 and alpha == field.half())


def split_spin(space: QuadraticSpace, alpha) -> Algebra:
    """The split spin factor algebra on E + F z1 + F z2."""
    field = space.field
    alpha = field.scalar(alpha)
    k = space.dim
    z1, z2 = k, k + 1
    a = alpha.value
    c1, c2 = a * (a - 2), (a - 1) * (a + 1)
    constants = []
    for i in range(k):
        for j in range(i, k):
            b = space.gram.raw[i][j]
            constants += [(i, j, z1, -b * c1), (i, j, z2, -b * c2)]
        constants += [(i, z1, i, a), (i, z2, i, 1 - a)]
    constants += [(z1, z1, z1, 1), (z2, z2, z2, 1)]
    labels = tuple(f"e{i + 1}" for i in range(k)) + ("z1", "z2")
    warnings = ("characteristic_two",) if field.characteristic == 2 else ()
    meta = AlgebraMeta(SPLIT_SPIN, alpha=alpha, space=space, warnings=warnings)
    return Algebra(field, labels, constants, meta)


def exceptional_cover(space: QuadraticSpace) -> Algebra:
    """The nil cover on E + F z1 + F n: n annihilates everything,
    e z1 = -e and e f = -b(e, f)(3 z1 - 2 n).  Its alpha = -1 is
    Jordan-special at p = 3, where -1 = 1/2, and at p = 2, where -1 = 1."""
    field = space.field
    k = space.dim
    z1, nil = k, k + 1
    constants = []
    for i in range(k):
        for j in range(i, k):
            b = space.gram.raw[i][j]
            constants += [(i, j, z1, -3 * b), (i, j, nil, 2 * b)]
        constants.append((i, z1, i, -1))
    constants.append((z1, z1, z1, 1))
    labels = tuple(f"e{i + 1}" for i in range(k)) + ("z1", "n")
    warnings = {2: ("characteristic_two",), 3: ("characteristic_three",)}.get(field.characteristic, ())
    meta = AlgebraMeta(COVER, alpha=field.scalar(-1), space=space, warnings=warnings)
    return Algebra(field, labels, constants, meta)


def matsuo_3c(field: Field, alpha) -> Algebra:
    """The three-dimensional algebra 3C(alpha) on idempotents a, b, c with
    pairwise products (alpha / 2)(sum of the pair minus the third)."""
    if field.characteristic == 2:
        raise CharTwo("3C(alpha) requires characteristic != 2")
    alpha = field.scalar(alpha)
    half_alpha = alpha / 2
    # b_i b_i = b_i; b_i b_j = (alpha / 2)(b_i + b_j - b_l) for {i, j, l} = {0, 1, 2}
    constants = [(i, i, i, 1) for i in range(3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        constants += [(i, j, i, half_alpha), (i, j, j, half_alpha), (i, j, 3 - i - j, -half_alpha)]
    meta = AlgebraMeta(MATSUO_3C, alpha=alpha)
    return Algebra(field, ("a", "b", "c"), constants, meta)
