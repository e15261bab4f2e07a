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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    AlgebraMismatch,
    CharTwo,
    DimensionMismatch,
    DuplicateCandidates,
    FieldMismatch,
    NotAnIdeal,
    check,
)
from .fields import Field, Scalar
from .linalg import Echelon, Matrix, Vector, _reduced, boxed, cleared, pruned, raw_values, sparse, zero_one
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

    __slots__ = ("field", "labels", "_rows", "denominator", "meta", "_e_line", "_classes")

    def __init__(self, field: Field, labels: Sequence[str], constants: Iterable[Sequence], meta: AlgebraMeta):
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
        d, ints = cleared(list(values.values()))
        self._store(field, labels, [(*key, c) for key, c in zip(values, ints)], d, meta)

    @classmethod
    def _from_ints(cls, field: Field, labels: Sequence[str], cells: Sequence[Sequence[int]],
                   d0: int, meta: AlgebraMeta) -> Algebra:
        """The algebra whose constants are the cells' ints over d0; no coercion."""
        algebra = cls.__new__(cls)
        algebra._store(field, labels, cells, d0, meta)
        return algebra

    def _store(self, field: Field, labels: Sequence[str], cells: Sequence[Sequence[int]],
               d0: int, meta: AlgebraMeta) -> None:
        """Store the nonzero constants c / d0 of the distinct (i, j, k, c)
        cells, i <= j and c an int: as the residues c / d0 over F_p (D = 1),
        as c / g over D = d0 / g over Q, g the gcd of d0 and every c."""
        p = field.p
        f = pow(d0, -1, p) if p else 1
        g = d0 if p else math.gcd(d0, *(c for *_, c in cells))  # D = d0 / g
        rows: list[dict[int, list]] = [{} for _ in labels]
        for i, j, k, c in sorted(cells):  # (i, j) order, so each row's keys ascend
            if c := c * f % p if p else c // g:
                cell = rows[i].setdefault(j, [])
                cell.append((k, c))
                rows[j][i] = cell
        self.field = field
        self.labels = tuple(labels)
        self._rows = rows
        self.denominator = d0 // g
        self.meta = meta
        self._e_line = self._classes = None  # built on first use by `e_line` and `idempotents.classes`

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
        return tuple((i, j, k, Scalar(self.field, c)) for i, j, k, c in self.raw_constants())

    def raw_constants(self) -> list[tuple]:
        """`constants` with raw values."""
        p, d = self.field.p, self.denominator
        return [(i, j, k, c if p else Fraction(c, d))
                for i, row in enumerate(self._rows) for j, cell in row.items() if j >= i for k, c in cell]

    def cell(self, i: int, j: int) -> Sequence[tuple[int, int]]:
        """The stored nonzero (k, D c) pairs of b_i b_j, D the `denominator`."""
        return self._rows[i].get(j, ())

    @property
    def e_line(self) -> bool:
        """Whether every product of two vectors of E lies on one line: the
        nonzero cells b_i b_j, i <= j < dim E, are pairwise proportional.
        Read off the cells once, with whether there are none; False without E."""
        if self._e_line is None:
            m, p = self.meta.space.dim if self.meta.space else 0, self.field.p
            cells = [cell for i, row in enumerate(self._rows[:m]) for j, cell in row.items() if i <= j < m]
            first = cells[0] if cells else [(0, 0)]
            scaled = (lambda v, f: [(k, c * f % p) for k, c in v]) if p else (lambda v, f: [(k, c * f) for k, c in v])
            # a cell is a multiple of the first exactly when each, scaled by the other's leading entry, gives the same
            self._e_line = (bool(m) and all(scaled(cell, first[0][1]) == scaled(first, cell[0][1]) for cell in cells),
                            bool(m) and not cells)
        return self._e_line[0]

    def _from_cells(self, sums: dict, scale: int) -> tuple:
        """The sparse sums of products with the stored cells, over scale, as
        dense raw values: residues over F_p, Fractions over D scale over Q."""
        p, d = self.field.p, self.denominator * scale
        out = [zero_one(self.field)[0]] * self.dim
        for k, a in sums.items():
            out[k] = a if p else Fraction(a, d)
        return tuple(out)

    # -- multiplication ------------------------------------------------------

    def _mul_coords(self, u: dict, v: dict) -> dict:
        """D u v summed on the stored cells as a sparse vector (residues over
        F_p), for the sparse int (or raw) vectors u and v: the one loop that
        multiplies on the cells, one cell read per pair of nonzero entries of
        u and v.  `_from_cells` makes it dense and raw."""
        rows, acc = self._rows, {}
        for i, ui in u.items():
            row = rows[i]
            for j, vj in v.items():
                cell = row.get(j)
                if cell:
                    w = ui * vj
                    for k, c in cell:
                        acc[k] = acc.get(k, 0) + w * c
        return pruned(self.field.p, acc)

    def multiply(self, u: Element, v: Element) -> Element:
        if u.algebra is not self or v.algebra is not self:
            raise AlgebraMismatch("elements belong to a different algebra")
        (du, a), (dv, b) = ((1, u.raw), (1, v.raw)) if self.field.p else (cleared(u.raw), cleared(v.raw))
        a = sparse(a)
        return Element(self, self._from_cells(self._mul_coords(a, a if v is u else sparse(b)), du * dv))

    # -- eigenstructure ------------------------------------------------------

    def eigenspaces_raw(self, u: Sequence, values: Sequence) -> list[list[dict]]:
        """Bases of the kernels of ad_u - lambda as sparse int vectors, one
        per raw lambda = a / q in values (q = 1 over F_p), for the raw
        coordinates u, cleared once to the ints du u: the `Echelon.kernel` of
        the int rows q D du ad_u - a D du I, each a positive multiple of the
        vector with a unit entry at its free column over Q.  Column j of
        D du ad_u is the product of du u and b_j.  One path over Q and F_p,
        where du = 1."""
        if len(set(values)) != len(values):
            raise DuplicateCandidates("candidate eigenvalues must be pairwise distinct")
        (du, u), n = cleared(u), self.dim
        u, scale = sparse(u), du * self.denominator
        columns = [self._mul_coords(u, {j: 1}) for j in range(n)]
        bases = []
        for a, q in (lam.as_integer_ratio() for lam in values):
            shifted = [{k: -a * scale} for k in range(n)]
            for j, column in enumerate(columns):
                for k, x in column.items():
                    shifted[k][j] = shifted[k].get(j, 0) + q * x
            bases.append(Echelon(self.field, shifted).kernel(n))
        return bases

    def identity(self) -> Element | None:
        """The multiplicative identity, or None if no element satisfies
        u b_i = b_i for every basis vector b_i.

        Equation (i, k), sum_j u_j (b_k-coefficient of b_j b_i) = [k == i]
        times D, is read off the stored cells as a sparse augmented row and
        reduced into one echelon basis; a pivot on the right-hand side means
        no solution.  An identity is unique when it exists, so a consistent
        system has full rank and u is the last column of the reduced rows.
        """
        if not all(self._rows):
            return None  # u b_i = 0 for a b_i whose products all vanish
        n = self.dim
        span = Echelon(self.field)
        for i, row in enumerate(self._rows):
            equations = {i: {n: self.denominator}}  # only the equations with a nonzero entry
            for j, cell in row.items():
                for k, c in cell:
                    equations.setdefault(k, {})[j] = c
            for equation in equations.values():
                if span.insert(equation) == n:
                    return None
        check(span.rank == n, "a consistent identity system is not of full rank", span.rank)
        return Element(self, [row[n] for row in span.unit_rows(n + 1)])

    # -- subalgebras and quotients --------------------------------------------

    def subalgebra(self, generators: Sequence[Element]) -> SubalgebraResult:
        """Close the span of the generators under products.

        The sub-basis is greedy: generators first (independent ones kept in
        order), then products as they appear.  The closure degree records how
        many rounds of products were needed (1 means the generators already
        span a subalgebra).  The closure needs no cap: its basis is
        independent in the algebra, so it never outgrows dim.
        """
        if any(g.algebra is not self for g in generators):
            raise AlgebraMismatch("generator from a different algebra")
        p, n, span = self.field.p, self.dim, Echelon(self.field)
        basis: list[tuple[int, dict]] = []  # (d_t, B_t): basis vector t is the sparse ints B_t over d_t
        d, flat = cleared([a for g in generators for a in g.raw])
        for t in range(0, len(flat), n):
            if span.insert(vec := sparse(flat[t:t + n])) is not None:
                basis.append((d, vec))
        if not basis:
            raise ValueError("need at least one nonzero generator")

        # a pair multiplied in an earlier round already lies in the span
        products: dict[tuple[int, int], dict] = {}
        degree = 1
        while True:
            m = len(basis)  # products found this round wait for the next
            for i in range(m):
                for j in range(i, m):
                    if (i, j) not in products:
                        products[i, j] = prod = self._mul_coords(basis[i][1], basis[j][1])
                        if span.insert(prod) is not None:  # D B_i B_j over D d_i d_j
                            basis.append((self.denominator * basis[i][0] * basis[j][0], prod))
            if len(basis) == m:
                break
            degree += 1

        # a vector of the span is fixed by its entries at the pivots: Q P^-1 by column, for P the pivot
        # block of the B_t and Q the diagonal of the pivot entries q_t
        pivots = span.pivots
        block = [{t: b[c] for t, (_, b) in enumerate(basis) if c in b} for c in pivots]  # P
        q, columns = Echelon.inverting(self.field, block)
        inverse = dict(zip(pivots, columns))
        coords: dict[tuple[int, int, int], int] = {}  # b_t-coefficient of b_i b_j: d_t coords / (q_t D d_i d_j)
        for (i, j), prod in products.items():
            check(not span.reduce(prod), "subalgebra closure misses a product", (i, j))
            for c, x in prod.items():  # read only at the product's nonzero pivots
                for t, a in inverse.get(c, ()):
                    coords[i, j, t] = coords.get((i, j, t), 0) + a * x
        constants = [(i, j, t, a % p if p else Fraction(basis[t][0] * a,
                                                        q[t] * self.denominator * basis[i][0] * basis[j][0]))
                     for (i, j, t), a in coords.items()]
        columns = ([b.get(k, 0) if p else Fraction(b.get(k, 0), d) for k in range(n)] for d, b in basis)
        embedding = Matrix._from_raw(self.field, zip(*columns))
        labels = tuple(f"s{i + 1}" for i in range(m))
        sub = Algebra(self.field, labels, constants, AlgebraMeta(DERIVED))
        return SubalgebraResult(sub, embedding, degree)

    def ideal_witness(self, vectors: Sequence[Sequence]) -> tuple[int, int] | None:
        """The first (vector, basis) index pair (i, k) whose product v_i b_k
        leaves the span of the raw (or int) vectors, or None when the span is
        an ideal; the vectors are cleared once, and each product is reduced
        as it comes into the span's one `Echelon`, which `quotient` reads."""
        return self._ideal(vectors)[1]

    def _ideal(self, vectors: Sequence[Sequence]) -> tuple[Echelon, tuple[int, int] | None]:
        n, (_, flat) = self.dim, cleared([a for v in vectors for a in v])
        ints = [sparse(flat[i:i + n]) for i in range(0, len(flat), n)]
        span = Echelon(self.field, ints)
        return span, next(((i, k) for i, v in enumerate(ints) for k in range(n)
                           if span.reduce(self._mul_coords(v, {k: 1}))), None)

    def quotient(self, ideal: Sequence[Element]) -> QuotientResult:
        """Quotient by the span of the given elements.

        The span is verified to be an ideal first; the quotient basis is the
        set of standard basis vectors at the non-pivot coordinates of the
        ideal's echelon form, so quotient labels are inherited from ambient.
        Row t of the projection is the ideal's `Echelon.kernel` vector at
        free column f over its entry at f: 1 at b_f, and at b_c minus the
        reduced row of pivot c at f.
        """
        if any(x.algebra is not self for x in ideal):
            raise AlgebraMismatch("ideal element from a different algebra")
        p, n, zero = self.field.p, self.dim, zero_one(self.field)[0]
        span, witness = self._ideal([x.raw for x in ideal])
        if witness is not None:
            raise NotAnIdeal(f"span not closed under multiplication by basis vector {self.labels[witness[1]]}")
        basis = span.kernel(n)
        if not basis:
            raise ValueError("quotient by the whole algebra is empty")
        free = [max(v) for v in basis]  # a kernel vector's last column is its free column
        # column k of L pi as {t: entry}, L the lcm of the kernel vectors' entries at their free columns (1 over F_p)
        scale, images = math.lcm(*(v[f] for f, v in zip(free, basis))), {}
        for t, (f, v) in enumerate(zip(free, basis)):
            for k, a in v.items():
                images.setdefault(k, {})[t] = a * (scale // v[f])
        projection = ([(v[k] if p else Fraction(v[k], v[f])) if k in v else zero for k in range(n)]
                      for f, v in zip(free, basis))
        cells: dict[tuple[int, int, int], int] = {}
        for a, b in itertools.combinations_with_replacement(range(len(free)), 2):
            for k, w in self.cell(free[a], free[b]):
                for t, x in images.get(k, {}).items():
                    cells[a, b, t] = cells.get((a, b, t), 0) + w * x
        quot = Algebra._from_ints(self.field, tuple(self.labels[f] for f in free),
                                  [(*k, c) for k, c in cells.items()], scale * self.denominator, AlgebraMeta(DERIVED))
        return QuotientResult(quot, Matrix._from_raw(self.field, projection))

    # -- isomorphism checking --------------------------------------------------

    def check_isomorphism(self, other: Algebra, mapping: Matrix) -> tuple[bool, tuple[int, int] | None]:
        """Whether the matrix (columns = images of this basis in the other
        algebra) is an algebra isomorphism.  Returns the first failing basis
        pair as a witness, or None when the map is singular or correct.
        On sparse ints, for C = d M and the other algebra's denominator D',
        the test is d D' C (D b_i b_j) == D (D' (C b_i)(C b_j)), both
        products through `_mul_coords` (D = D' = d = 1 over F_p)."""
        if self.field != other.field:
            raise FieldMismatch("algebras over different fields")
        if mapping.field != self.field:
            raise FieldMismatch(f"mapping over {mapping.field!r} for algebras over {self.field!r}")
        n, p = self.dim, self.field.p
        if other.dim != n or mapping.rows != n or mapping.cols != n:
            raise DimensionMismatch("mapping must be square of the common dimension")
        d, flat = cleared([a for row in mapping.raw for a in row])
        if Echelon(self.field, (sparse(flat[i:i + n]) for i in range(0, n * n, n))).rank < n:
            return False, None
        cols = [sparse(flat[j::n]) for j in range(n)]
        image_of = [{r: d * other.denominator * a for r, a in col.items()} for col in cols]  # d D' C
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            image: dict[int, int] = {}
            for k, c in self._mul_coords({i: 1}, {j: 1}).items():
                for r, a in image_of[k].items():
                    image[r] = image.get(r, 0) + c * a
            if pruned(p, image) != {r: self.denominator * a for r, a in other._mul_coords(cols[i], cols[j]).items()}:
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
    """The split spin factor algebra on E + F z1 + F z2.  For alpha = r / q
    and the form's terms t = s b(e_i, e_j), its cells are ints over s q^2:
    -t r (r - 2q) and -t (r - q)(r + q), s q r and s q (q - r), and s q^2."""
    field = space.field
    alpha = field.scalar(alpha)
    k, s = space.dim, space._scale
    z1, z2 = k, k + 1
    r, q = alpha.value.as_integer_ratio()
    c1, c2 = -r * (r - 2 * q), (q - r) * (r + q)
    cells = [cell for i, j, t in space._terms for cell in ((i, j, z1, t * c1), (i, j, z2, t * c2))]
    cells += [cell for i in range(k) for cell in ((i, z1, i, s * q * r), (i, z2, i, s * q * (q - r)))]
    cells += [(z1, z1, z1, s * q * q), (z2, z2, z2, s * q * q)]
    labels = tuple(f"e{i + 1}" for i in range(k)) + ("z1", "z2")
    warnings = ("characteristic_two",) if field.characteristic == 2 else ()
    meta = AlgebraMeta(SPLIT_SPIN, alpha=alpha, space=space, warnings=warnings)
    return Algebra._from_ints(field, labels, cells, s * q * q, meta)


def exceptional_cover(space: QuadraticSpace) -> Algebra:
    """The nil cover on E + F z1 + F n: n annihilates everything,
    e z1 = -e and e f = -b(e, f)(3 z1 - 2 n), as ints over the form's
    scale s.  Its alpha = -1 is Jordan-special at p = 3, where -1 = 1/2,
    and at p = 2, where -1 = 1."""
    field = space.field
    k, s = space.dim, space._scale
    z1, nil = k, k + 1
    cells = [cell for i, j, t in space._terms for cell in ((i, j, z1, -3 * t), (i, j, nil, 2 * t))]
    cells += [(i, z1, i, -s) for i in range(k)] + [(z1, z1, z1, s)]
    labels = tuple(f"e{i + 1}" for i in range(k)) + ("z1", "n")
    warnings = {2: ("characteristic_two",), 3: ("characteristic_three",)}.get(field.characteristic, ())
    meta = AlgebraMeta(COVER, alpha=field.scalar(-1), space=space, warnings=warnings)
    return Algebra._from_ints(field, labels, cells, s, meta)


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
