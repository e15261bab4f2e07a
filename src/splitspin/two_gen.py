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
powers run on flat row-major 2x2 tuples of raw values, with Scalars and
Matrix objects only at the API edge: |X| = 10006 (p = 10007, mu = 6)
takes about 0.07 s on 2 vCPUs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .algebra import COVER, SPLIT_SPIN, Algebra, Element, exceptional_cover, is_jordan_special, split_spin
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
from .idempotents import FAMILY_A, FAMILY_EXC, classify_idempotent, family_axis, is_idempotent
from .linalg import Matrix, Vector, _reduced, boxed
from .quadratic import QuadraticSpace

FINITE = "finite"
INFINITE = "infinite"
EXCEEDS_CAP = "exceeds_cap"

SINGLE = "single"
TWO_HALVES = "two_halves"
_IDENTITY = (1, 0, 0, 1)  # the flat row-major 2x2 identity


@dataclass(frozen=True)
class OrbitSize:
    kind: str
    order: int | None = None

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
    variant: str = SPLIT_SPIN

    def __post_init__(self):
        object.__setattr__(self, "mu", self.field.scalar(self.mu))
        if self.variant not in (SPLIT_SPIN, COVER):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.variant == COVER:
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
    for candidate in range(2, 9):
        value = field.scalar(candidate)
        if not is_jordan_special(value):
            return value
    # F_3 is {0, 1, 1/2}: no alpha admits the two-generated axes there
    raise ConfigError(f"no valid alpha exists over {field!r}")


def build_two_gen(cfg: TwoGenConfig) -> tuple[Algebra, Element, Element]:
    """The algebra together with its two generating axes x and y."""
    field = cfg.field
    if field.characteristic == 2:
        raise CharTwo("two-generated axes require characteristic != 2")
    space = cfg.space()
    if cfg.variant == COVER:
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
    if not (is_idempotent(x) and is_idempotent(y)):
        raise ValueError("generators must be idempotent axes")
    e, f = (tuple(2 * c for c in algebra.e_part(axis)) for axis in (x, y))
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
    delta = -2 * mu - 1
    elements = (x, y, a_minus1, q)
    sub = algebra.subalgebra(elements)  # the four span the algebra exactly when they are its sub-basis
    spans = sub.closure_degree == 1 and sub.algebra.dim == algebra.dim == 4
    check(spans, "the Yabe basis must span the four-dimensional algebra",
          witness=Matrix.from_columns(field, [element.raw for element in elements]))
    constants = tuple(tuple((sub.algebra.basis(i) * sub.algebra.basis(j)).coords for j in range(4)) for i in range(4))
    return YabeData(x, y, a_minus1, q, delta, constants, spans)


def rho(mu: Scalar) -> Matrix:
    """The matrix [[2 mu, -1], [1, 0]] of the swap-then-reflect composite
    acting on row vectors of E; trace 2 mu, determinant 1."""
    return Matrix(mu.field, [[2 * mu, -1], [1, 0]])


def _compose(p: int | None, s: tuple, t: tuple) -> tuple:
    """s t for 2x2 matrices held as flat row-major tuples of raw values, reduced mod p over F_p."""
    (a, b, c, d), (e, f, g, h) = s, t
    w, x, y, z = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return (w % p, x % p, y % p, z % p) if p else (w, x, y, z)


def _power(p: int, m: tuple, k: int) -> tuple:
    """m^k for a flat 2x2 m over F_p, by squaring along the bits of k."""
    result = _IDENTITY
    for bit in bin(k)[2:]:
        result = _compose(p, result, result)
        if bit == "1":
            result = _compose(p, result, m)
    return result


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    primes, q = [], 2
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
    m = tuple(_reduced(p, (2 * mu.value, -1, 1, 0)))  # rho(mu), row-major
    square = pow((mu * mu - 1).value, (p - 1) // 2, p) == 1
    n = 6 if p == 2 else p - 1 if square else p + 1
    power = _power(p, m, n)
    check(power == _IDENTITY, f"rho({mu}) over F_{p} does not satisfy rho^{n} = 1",
          witness=Matrix._from_raw(field, (power[:2], power[2:])))
    for q in _prime_divisors(n):
        while n % q == 0 and _power(p, m, n // q) == _IDENTITY:
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
    rho^(N/q) = 1, which costs O(log p) flat 2x2 products (`_compose`) per
    prime divisor.  Over F_2 the one remaining value mu = 0 starts from
    N = |SL_2(F_2)| = 6.

    A finite order greater than cap is reported as exceeds_cap.
    """
    if cap is not None and cap < 1:
        raise ValueError("cap must be at least 1")
    mu = field.scalar(mu)
    if field.p is None:
        order = {-1: 3, 0: 4, 1: 6}.get((2 * mu).value)  # by the trace
        if order is None:
            return OrbitSize(INFINITE)
    else:
        order = _prime_field_order(field, mu)
    if cap is not None and order > cap:
        return OrbitSize(EXCEEDS_CAP)
    return OrbitSize(FINITE, order)


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


def _involution(space: QuadraticSpace, v: tuple) -> tuple:
    """tau_v = 2 v (G v)^T - I = -r_v, flat row-major, from the g = s G v that
    shows b(v, v) = v . g / s = 1 for the orbit vector v: entry (i, j) is
    (2 v_i g_j - [i = j] s) / s, s = 1 over F_p, reduced as the field needs."""
    p, s = space.field.p, space._scale
    v0, v1 = v
    g0, g1 = space._image(v)
    n = v0 * g0 + v1 * g1
    if (n % p if p else n) != s:  # b(v, v) is only the witness
        raise VerificationFailed("orbit left the norm-one set", (v, space.bform(v, v)))
    a, b, c, d = 2 * v0 * g0 - s, 2 * v0 * g1, 2 * v1 * g0, 2 * v1 * g1 - s
    return (a % p, b % p, c % p, d % p) if p else (a / s, b / s, c / s, d / s)


def axet(algebra: Algebra, x: Element, y: Element, cap: int | None = None) -> AxetResult:
    """Enumerate X as the orbit of the two axis E-vectors e, f under the
    negated reflections tau_e, tau_f, and cross-check |X| against the order
    of rho.

    Orthogonal maps conjugate reflections, tau_{g v} = g tau_v g^-1, so
    each new vector v = tau_g(u) is certified by tau_v = tau_g tau_u tau_g
    exactly; by induction every tau_v lies in <tau_e, tau_f>, and the orbit
    is closed under the involution of every axis in it.  Each tau_v is a
    flat 2x2 tuple from `_involution`, tau_e and tau_f are applied inline,
    and the certificate multiplies with `_compose`.

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
    p = field.p
    e, f = (tuple(_reduced(p, (2 * a for a in axis.raw[:2]))) for axis in (x, y))
    mu = space.bform(e, f)
    order = rho_order(field, mu)
    if order.kind == INFINITE:
        return AxetResult(order, None, TWO_HALVES, 2)
    if cap is not None and order.order > cap:
        raise CapExceeded(f"axet enumeration needs {order.order} elements, beyond cap {cap}")

    # orbit vectors are raw tuples, boxed only on reading the result; taus[v] holds tau_v flat,
    # seed[v] is e or f, in discovery order: its keys are X; parent[v] = (g, u) with v = tau_g(u)
    taus = {g: _involution(space, g) for g in (e, f)}
    generators = [(g, *taus[g]) for g in (e, f)]
    seed = {e: e, f: f}
    parent = {}
    orbits_meet = False
    queue = deque(seed)
    while queue:
        v0, v1 = current = queue.popleft()
        for g, a, b, c, d in generators:
            image = ((a * v0 + b * v1) % p, (c * v0 + d * v1) % p) if p else (a * v0 + b * v1, c * v0 + d * v1)
            if image in seed:
                orbits_meet = orbits_meet or seed[image] != seed[current]
                continue
            taus[image] = _involution(space, image)
            seed[image] = seed[current]
            parent[image] = (g, current)
            queue.append(image)
    for v, (g, u) in parent.items():
        check(taus[v] == _compose(p, _compose(p, taus[g], taus[u]), taus[g]),
              "tau_v is not the conjugate of its parent's involution", witness=(v, g, u))
    orbit = tuple(seed)
    n = len(orbit)
    check(n == order.order, f"orbit size {n} disagrees with the rho order {order.order}",
          witness=(n, order.order))
    if orbits_meet:
        split = SINGLE
        orbit_x = orbit_y = orbit
    else:
        split = TWO_HALVES
        orbit_x = tuple(v for v in orbit if seed[v] == e)
        orbit_y = tuple(v for v in orbit if seed[v] == f)
        check(len(orbit_x) == len(orbit_y) == n // 2, "the D-orbits are not halves of X",
              witness=(len(orbit_x), len(orbit_y), n))
    index = 1 if n % 2 == 1 else 2
    check((split == SINGLE) == (n % 2 == 1), "odd size must mean a single D-orbit", witness=(n, split))
    return AxetResult(order, orbit, split, index, orbit_x, orbit_y, field)
