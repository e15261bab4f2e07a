"""The two-generated case: Yabe-basis data, the rho matrix, and axet
(closed axis set) sizes and orbit structure.

E is two-dimensional, spanned by norm-one vectors e and f with mu = b(e, f).
The two generating axes are x and y, attached to e and f.  The composite
rho of the axis swap with the Miyamoto involution of x acts on E with
matrix [[2 mu, -1], [1, 0]] (row-vector convention), and the size of the
closed axis set X equals the order of rho.  Over the rationals that order
is decided exactly from the trace; over F_p the orders p and 2p occur at
mu = 1 and mu = -1, and every other order divides p - 1 or p + 1 and is
found among the divisors with exact matrix powers.

X is enumerated as the orbit of {e, f} under the two generating
involutions alone: orthogonal maps conjugate reflections, so that orbit
is closed under the involution of every axis in it, and a per-vector
certificate checks this exactly.  The search, its certificate and rho's
powers run on raw residues, with Scalars and Matrix objects only at the
API edge: |X| = 10006 (p = 10007, mu = 6) takes about 0.2 s on 2 vCPUs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .algebra import COVER, SPLIT_SPIN, Algebra, Element, exceptional_cover, split_spin
from .axial import axis_law, miyamoto
from .errors import (
    BadCharacteristic,
    CapExceeded,
    CharTwo,
    ConfigError,
    MuOne,
    SpecialAlpha,
    VerificationFailed,
    WrongAlgebraKind,
    check,
)
from .fields import Field, Scalar
from .idempotents import FAMILY_A, FAMILY_EXC, classify_idempotent, family_axis
from .linalg import Matrix, Vector, _reduced, boxed, product
from .quadratic import QuadraticSpace

VARIANT_SPLIT = "split_spin"
VARIANT_COVER = "cover"

FINITE = "finite"
INFINITE = "infinite"
EXCEEDS_CAP = "exceeds_cap"

SINGLE = "single"
TWO_HALVES = "two_halves"


@dataclass(frozen=True)
class OrbitSize:
    kind: str
    order: int | None = None

    @classmethod
    def finite(cls, n: int) -> OrbitSize:
        return cls(FINITE, n)

    @classmethod
    def infinite(cls) -> OrbitSize:
        return cls(INFINITE)

    @classmethod
    def exceeds_cap(cls) -> OrbitSize:
        return cls(EXCEEDS_CAP)

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE


@dataclass(frozen=True)
class TwoGenConfig:
    """Two norm-one generators with b(e, f) = mu; the cover variant forces
    alpha = -1."""

    field: Field
    mu: Scalar
    alpha: Scalar | None = None
    variant: str = VARIANT_SPLIT

    def __post_init__(self):
        object.__setattr__(self, "mu", self.field.scalar(self.mu))
        if self.variant not in (VARIANT_SPLIT, VARIANT_COVER):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.variant == VARIANT_COVER:
            minus_one = -self.field.one()
            if self.alpha is not None and self.field.scalar(self.alpha) != minus_one:
                raise ConfigError("the cover variant has alpha = -1")
            object.__setattr__(self, "alpha", minus_one)
        else:
            if self.alpha is None:
                raise ConfigError("alpha is required for the split spin variant")
            object.__setattr__(self, "alpha", self.field.scalar(self.alpha))

    def space(self) -> QuadraticSpace:
        return QuadraticSpace(Matrix(self.field, [[1, self.mu], [self.mu, 1]]))


def default_two_gen_alpha(field: Field) -> Scalar:
    """A small alpha valid for two-generated axes (outside {0, 1, 1/2}).

    Axet sizes do not depend on alpha, so this default lets orbit commands
    run without one.
    """
    if field.characteristic == 2:
        raise CharTwo("two-generated axes require characteristic != 2")
    excluded = {field.zero(), field.one(), field.half()}
    for candidate in range(2, 9):
        value = field.scalar(candidate)
        if value not in excluded:
            return value
    # F_3 is {0, 1, 1/2}: no alpha admits the two-generated axes there
    raise ConfigError(f"no valid alpha exists over {field!r}")


def build_two_gen(cfg: TwoGenConfig) -> tuple[Algebra, Element, Element]:
    """The algebra together with its two generating axes x and y."""
    field = cfg.field
    if field.characteristic == 2:
        raise CharTwo("two-generated axes require characteristic != 2")
    space = cfg.space()
    if cfg.variant == VARIANT_COVER:
        if field.characteristic == 3:
            raise BadCharacteristic("the cover requires characteristic != 3")
        algebra = exceptional_cover(space)
        family = FAMILY_EXC
    else:
        algebra = split_spin(space, cfg.alpha)
        if algebra.meta.jordan_special:
            raise ConfigError("alpha in {0, 1, 1/2} gives a Jordan algebra, not a two-generated axial pair")
        family = FAMILY_A
    return algebra, family_axis(algebra, [1, 0], family), family_axis(algebra, [0, 1], family)


@dataclass
class YabeData:
    """The basis (a0, a1, a_minus1, q) together with delta = -2 mu - 1 and
    the structure constants of the algebra expressed in that basis."""

    a0: Element
    a1: Element
    a_minus1: Element
    q: Element
    delta: Scalar
    structure_constants: tuple  # 4 x 4 x 4 coordinates in the (a0, a1, a_minus1, q) basis
    spans_algebra: bool


def yabe_data(algebra: Algebra, x: Element, y: Element) -> YabeData:
    """Construct a0 = x, a1 = y, a_minus1 = y^{tau_x} and the distinguished
    q, and express every pairwise product in that basis.

    Split spin: q = alpha (alpha+1)(mu-1)/4 times the identity; rejected for
    alpha = -1 (the two axes only generate a proper subalgebra).  Cover:
    q = (1-mu)/4 times n.  Both reject mu = 1.
    """
    kind = algebra.meta.kind
    if kind not in (SPLIT_SPIN, COVER):
        raise WrongAlgebraKind("Yabe data concerns the split spin algebra or its cover")
    field = algebra.field
    space = algebra.meta.space
    if space.dim != 2:
        raise ValueError("the Yabe basis lives in the two-generated case (dim E = 2)")
    for axis in (x, y):
        if (axis * axis).raw != axis.raw:
            raise ValueError("generators must be idempotent axes")
    two = field.scalar(2)
    e = tuple(two * c for c in algebra.e_part(x))
    f = tuple(two * c for c in algebra.e_part(y))
    mu = space.bform(e, f)
    if mu.is_one:
        raise MuOne("mu = 1: x and y generate a two-dimensional Jordan subalgebra")
    alpha = algebra.meta.alpha
    if kind == SPLIT_SPIN:
        if alpha == -field.one():
            raise SpecialAlpha("alpha = -1: x and y do not generate the split spin algebra")
        q = algebra.identity() * (alpha * (alpha + 1) * (mu - 1) / 4)
    else:
        q = algebra.basis_by_label("n") * ((1 - mu) / 4)
    tau_x = miyamoto(algebra, x, axis_law(algebra, classify_idempotent(algebra, x).tag))
    a_minus1 = Element(algebra, tau_x.apply_raw(y.raw))
    delta = -two * mu - 1
    basis = Matrix.from_columns(field, [x.raw, y.raw, a_minus1.raw, q.raw])
    inverse = basis.inverse()
    spans = inverse is not None and algebra.dim == 4
    check(spans, "the Yabe basis must span the four-dimensional algebra",
          witness=basis)
    elements = (x, y, a_minus1, q)
    constants = tuple(
        tuple(inverse.apply((elements[i] * elements[j]).raw) for j in range(4))
        for i in range(4)
    )
    return YabeData(x, y, a_minus1, q, delta, constants, spans)


def rho(mu: Scalar) -> Matrix:
    """The matrix [[2 mu, -1], [1, 0]] of the swap-then-reflect composite
    acting on row vectors of E; trace 2 mu, determinant 1."""
    return Matrix(mu.field, [[2 * mu, -1], [1, 0]])


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    primes = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def _prime_field_order(field: Field, mu: Scalar) -> int:
    p = field.p
    if mu.is_one:
        return p
    if mu == -field.one():
        return 2 * p
    m = rho(mu)
    ident = Matrix.identity(field, 2)
    if p == 2:
        # 4 (mu^2 - 1) = 0 has no quadratic character: power up to |SL_2(F_2)| = 6
        order = next((k for k in range(1, 7) if m.pow(k) == ident), None)
        check(order is not None, f"rho({mu}) over F_2 has no order up to 6", witness=m)
        return order
    square = pow((mu * mu - 1).value, (p - 1) // 2, p) == 1
    n = p - 1 if square else p + 1
    power = m.pow(n)
    check(power == ident, f"rho({mu}) over F_{p} does not satisfy rho^{n} = 1",
          witness=power)
    for q in _prime_divisors(n):
        while n % q == 0 and m.pow(n // q) == ident:
            n //= q
    return n


def rho_order(field: Field, mu, cap: int | None = None) -> OrbitSize:
    """The multiplicative order of rho(mu), certified exactly.

    Over the rationals, rho has determinant one and is never plus or minus
    the identity, so finite order happens exactly for trace in {-1, 0, 1}
    (orders 3, 4, 6); trace +-2 is the non-diagonalisable unipotent case,
    of infinite order in characteristic zero.  Over F_p, mu = 1 gives order
    p and mu = -1 order 2p.  Otherwise rho has distinct eigenvalues l and
    1/l: they lie in F_p when mu^2 - 1 is a square, so the order divides
    p - 1, and else l^p = 1/l in F_{p^2}, so it divides p + 1.  That N is
    certified by rho^N = 1, then each prime q is divided out of N while
    rho^(N/q) = 1, which costs O(log p) raw 2x2 products per prime divisor
    (`Matrix.pow` boxes each power once).  Over F_2 the one remaining value
    mu = 0 is powered directly.

    A finite order greater than cap is reported as exceeds_cap.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be at least 1")
    mu = field.scalar(mu)
    if field.p is None:
        trace = (2 * mu).value
        orders = {-1: 3, 0: 4, 1: 6}
        if trace not in orders:
            return OrbitSize.infinite()
        order = orders[trace]
    else:
        order = _prime_field_order(field, mu)
    if cap is not None and order > cap:
        return OrbitSize.exceeds_cap()
    return OrbitSize.finite(order)


@dataclass
class AxetResult:
    """The closed axis set X: its size, the axis E-vectors in discovery
    order (finite case), the D-orbit split and the index of D in the
    dihedral overgroup (1 exactly when |X| is odd).  orbit_x and orbit_y
    are the D-orbits of e and f, each in discovery order.  The vectors are
    held raw and boxed into Scalars on first read."""

    size: OrbitSize
    raw_orbit: tuple[tuple, ...] | None
    d_orbit_split: str
    d_hat_index: int
    raw_x: tuple[tuple, ...] | None = None
    raw_y: tuple[tuple, ...] | None = None
    field: Field | None = None

    def _boxed(self, vectors) -> tuple[Vector, ...] | None:
        return None if vectors is None else tuple(boxed(self.field, v) for v in vectors)

    orbit = cached_property(lambda self: self._boxed(self.raw_orbit))
    orbit_x = cached_property(lambda self: self._boxed(self.raw_x))
    orbit_y = cached_property(lambda self: self._boxed(self.raw_y))


def axet(algebra: Algebra, x: Element, y: Element, cap: int | None = None) -> AxetResult:
    """Enumerate X as the orbit of the two axis E-vectors e, f under the
    negated reflections tau_e, tau_f, and cross-check |X| against the order
    of rho.

    Orthogonal maps conjugate reflections, tau_{g v} = g tau_v g^-1, so
    each new vector v = tau_g(u) is certified by tau_v = tau_g tau_u tau_g
    exactly; by induction every tau_v lies in <tau_e, tau_f>, and the orbit
    is closed under the involution of every axis in it.  Each v is checked
    to have norm one before tau_v = 2 v (G v)^T - I is built, as raw rows,
    and the certificate multiplies raw rows (`linalg.product`).

    The same search gives the D-orbits, D = <tau_e, tau_f>: each vector
    inherits the seed (e or f) it was reached from.  The orbits of e and f
    are equal or disjoint and every edge is followed, so they are equal
    (SINGLE) exactly when an edge joins different seeds; else seeds halve X.

    When the order of rho is certified infinite the enumeration is skipped
    and the result says so; a finite order beyond the cap raises CapExceeded.
    """
    field = algebra.field
    space = algebra.meta.space
    if space.dim != 2:
        raise ValueError("axet enumeration concerns the two-generated case (dim E = 2)")
    e = tuple(_reduced(field.p, (2 * a for a in x.raw[:2])))
    f = tuple(_reduced(field.p, (2 * a for a in y.raw[:2])))
    mu = space.bform(e, f)
    order = rho_order(field, mu)
    if order.kind == INFINITE:
        return AxetResult(OrbitSize.infinite(), None, TWO_HALVES, 2)
    if cap is not None and order.order > cap:
        raise CapExceeded(f"axet enumeration needs {order.order} elements, beyond cap {cap}")

    # orbit vectors are raw tuples, boxed only on reading the result; rows[v] holds tau_v as raw rows
    rows = {g: space.reflection_raw(g, -1) for g in (e, f)}
    tau = {g: Matrix._from_raw(field, rows[g]) for g in (e, f)}

    # parent[v] = (g, u) with v = tau_g(u); seed[v] is e or f
    orbit = [e, f]
    seed = {e: e, f: f}
    parent = {}
    orbits_meet = False
    queue = deque(orbit)
    while queue:
        current = queue.popleft()
        for g in (e, f):
            image = tau[g].apply_raw(current)
            if image in seed:
                orbits_meet = orbits_meet or seed[image] != seed[current]
                continue
            if not space.is_norm_one_raw(image):  # b(image, image) is only the witness
                raise VerificationFailed("orbit left the norm-one set", (image, space.bform(image, image)))
            rows[image] = space.reflection_raw(image, -1)
            seed[image] = seed[current]
            orbit.append(image)
            parent[image] = (g, current)
            queue.append(image)
    for v, (g, u) in parent.items():
        check(
            rows[v] == product(field.p, product(field.p, rows[g], rows[u]), rows[g]),
            "tau_v is not the conjugate of its parent's involution",
            witness=(v, g, u),
        )
    n = len(orbit)
    check(n == order.order, f"orbit size {n} disagrees with the rho order {order.order}",
          witness=(n, order.order))
    if orbits_meet:
        split = SINGLE
        orbit_x = orbit_y = tuple(orbit)
    else:
        split = TWO_HALVES
        orbit_x = tuple(v for v in orbit if seed[v] == e)
        orbit_y = tuple(v for v in orbit if seed[v] == f)
        check(len(orbit_x) == len(orbit_y) == n // 2, "the D-orbits are not halves of X",
              witness=(len(orbit_x), len(orbit_y), n))
    index = 1 if n % 2 == 1 else 2
    check((split == SINGLE) == (n % 2 == 1), "odd size must mean a single D-orbit",
          witness=(n, split))
    return AxetResult(order, tuple(orbit), split, index, orbit_x, orbit_y, field)
