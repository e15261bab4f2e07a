"""Exact scalar arithmetic over the rationals and over prime fields F_p.

Scalars are immutable value objects carrying a reference to their field.
Rationals are reduced fractions of arbitrary-precision integers; prime-field
values are residues in [0, p).  Mixing scalars from different fields raises
FieldMismatch instead of coercing silently.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to every base in _MR_BASES (Sorenson and Webster)
MR_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases 2..37, proven deterministic for
    n < MR_BOUND (about 3.2e23); raises ValueError at or above it."""
    if n >= MR_BOUND:
        raise ValueError(f"primality of {n} is only decided exactly below {MR_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo the odd prime p, or None if a is not a square."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class Field:
    """The rational field (p is None) or the prime field with p elements."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @classmethod
    def rationals(cls) -> Field:
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> Field:
        return cls(p)

    @property
    def characteristic(self) -> int:
        return self.p or 0

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"

    def zero(self) -> Scalar:
        return self.scalar(0)

    def one(self) -> Scalar:
        return self.scalar(1)

    def half(self) -> Scalar:
        """1/2, built raw; raises DivisionByZero in characteristic two."""
        if self.p == 2:
            raise DivisionByZero("inverse of zero")
        return Scalar(self, (self.p + 1) // 2 if self.p else Fraction(1, 2))

    def scalar(self, value) -> Scalar:
        """Coerce an int, Fraction, "a/b" string, or same-field Scalar."""
        if isinstance(value, Scalar) and value.field == self:
            return value
        return Scalar(self, raw_value(self, value))

    def to_json(self):
        if self.p is None:
            return {"kind": "rational"}
        return {"kind": "prime", "p": self.p}

    @classmethod
    def from_json(cls, obj) -> Field:
        kind = obj.get("kind")
        if kind == "rational":
            return cls(None)
        if kind == "prime":
            return cls(obj["p"])
        raise ValueError(f"unknown field kind {kind!r}")


def raw_value(field: Field, value):
    """The raw value of an int, Fraction, "a/b" string or Scalar over the
    field: a Fraction over Q, an int residue in [0, p) over F_p.  A Scalar
    over another field raises FieldMismatch, a bool, float or any other type
    TypeError, and a denominator divisible by p DivisionByZero."""
    if isinstance(value, Scalar):
        if value.field != field:
            raise FieldMismatch(f"scalar over {value.field!r} used over {field!r}")
        return value.value
    if isinstance(value, str):
        value = _parse_fraction(value)
    elif isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot coerce {type(value).__name__} to a scalar")
    p = field.p
    if p is None:
        return Fraction(value) if isinstance(value, int) else value
    den = value.denominator % p
    if den == 0:
        raise DivisionByZero(f"denominator divisible by {p}")
    return value.numerator * pow(den, -1, p) % p


def _parse_fraction(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num.strip()), int(den.strip()))
    return Fraction(int(text))


class Scalar:
    """A single exact element of a Field."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        # value is a reduced Fraction (rationals) or an int residue in [0, p)
        self.field = field
        self.value = value

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other):
        """The raw value of other, or None for the types the operators
        leave to Python (str, bool, float, ...)."""
        if type(other) is Scalar and other.field is self.field:
            return other.value
        if isinstance(other, bool) or not isinstance(other, (Scalar, int, Fraction)):
            return None
        return raw_value(self.field, other)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        if p is None:
            return Scalar(self.field, self.value + o)
        return Scalar(self.field, (self.value + o) % p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        if p is None:
            return Scalar(self.field, self.value - o)
        return Scalar(self.field, (self.value - o) % p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return -self + o

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        if p is None:
            return Scalar(self.field, self.value * o)
        return Scalar(self.field, self.value * o % p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * Scalar(self.field, o).inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.inv() * o

    def __neg__(self):
        p = self.field.p
        if p is None:
            return Scalar(self.field, -self.value)
        return Scalar(self.field, -self.value % p)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        p = self.field.p
        if p is None:
            return Scalar(self.field, self.value**k)
        return Scalar(self.field, pow(self.value, k, p))

    def inv(self) -> Scalar:
        if not self:
            raise DivisionByZero("inverse of zero")
        p = self.field.p
        if p is None:
            return Scalar(self.field, 1 / Fraction(self.value))
        return Scalar(self.field, pow(self.value, -1, p))

    # -- comparisons, hashing, display --------------------------------------

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return other.field == self.field and other.value == self.value
        o = self._coerce(other)
        return NotImplemented if o is None else o == self.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return self.value != 0

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_one(self) -> bool:
        return self.value == 1

    def __str__(self):
        if self.field.p is None and self.value.denominator != 1:
            return f"{self.value.numerator}/{self.value.denominator}"
        return str(self.value if self.field.p is not None else self.value.numerator)

    def __repr__(self):
        return f"Scalar({self}, {self.field!r})"

    def to_json(self):
        """Rationals serialize as "a/b" with b > 0 reduced; residues as ints."""
        if self.field.p is None:
            return f"{self.value.numerator}/{self.value.denominator}"
        return self.value
