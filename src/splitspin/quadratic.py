"""Quadratic spaces (E, b): form evaluation, reflections, radical, and the
search for vectors of norm one.

Norm-one search is exhaustive over finite fields when p**dim fits the
budget; over the rationals it is a heuristic sampler (deciding whether a
rational quadratic form represents 1 is number theory out of scope), so the
result carries an honest status of "exhaustive", "sampled" or "unknown".
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, IsotropicVector
from .fields import Field, Scalar, sqrt_mod
from .linalg import Echelon, Matrix, Vector, boxed, cleared, raw_values, sparse

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"
UNKNOWN = "unknown"
MAX_SAMPLED = 16  # the sampled norm-one search stops after this many vectors
DEFAULT_NORM_ONE_BUDGET = 100_000  # candidates a norm-one search may try


@dataclass(frozen=True)
class NormOneSearch:
    """Outcome of a norm-one vector search."""

    status: str  # "exhaustive" | "sampled" | "unknown"
    vectors: tuple[Vector, ...]
    spans: bool


class QuadraticSpace:
    """A vector space of dimension dim with a symmetric bilinear form b.

    The form is kept once, raw and on integers: the nonzero terms (i, j, c),
    i <= j, of s G, where s is the least common multiple of the Gram
    denominators over Q and 1 over F_p.  Every b(u, v), norm test and
    reflection goes through `_image`; `axial.frobenius` reads the terms too.
    """

    __slots__ = ("gram", "_scale", "_terms")

    def __init__(self, gram: Matrix):
        if not gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        self.gram = gram
        self._scale = s = math.lcm(*(a.denominator for row in gram.raw for a in row))
        self._terms = tuple((i, j, a.numerator * (s // a.denominator))
                            for i, row in enumerate(gram.raw) for j, a in enumerate(row[i:], i) if a)

    @property
    def field(self) -> Field:
        return self.gram.field

    @property
    def dim(self) -> int:
        return self.gram.rows

    def __eq__(self, other):
        return isinstance(other, QuadraticSpace) and self.gram == other.gram

    def __repr__(self):
        return f"QuadraticSpace({self.gram!r})"

    def _raw(self, values: Sequence) -> list:
        v = raw_values(self.field, values)
        if len(v) != self.dim:
            raise DimensionMismatch(f"expected a vector of length {self.dim}")
        return v

    def _image(self, v: Sequence) -> list:
        """s G v for an integer vector v, unreduced: the functional s b(., v)."""
        w = [0] * len(v)
        for i, j, c in self._terms:
            w[i] += c * v[j]
            if i != j:
                w[j] += c * v[i]
        return w

    def _form(self, u: Sequence, v: Sequence) -> int:
        """s b(u, v) for integer vectors u and v, unreduced."""
        return sum(map(operator.mul, u, self._image(v)))

    def _norm_one_image(self, d: int, x: Sequence[int]) -> list | None:
        """s G x for the ints x = d e (d = 1 over F_p) if b(e, e) = 1, else
        None: one `_image` gives both; no coercion."""
        p = self.field.p
        image = self._image(x)
        norm = sum(map(operator.mul, x, image))
        return image if (norm % p == 1 if p else norm == self._scale * d * d) else None

    def vector(self, values: Sequence) -> Vector:
        return boxed(self.field, self._raw(values))

    def bform(self, u: Sequence, v: Sequence) -> Scalar:
        """b(u, v) = u^T G v, on Scalars or raw values."""
        (du, u), (dv, v) = cleared(self._raw(u)), cleared(self._raw(v))
        acc, p = self._form(u, v), self.field.p
        return Scalar(self.field, acc % p if p else Fraction(acc, self._scale * du * dv))

    def norm(self, v: Sequence) -> Scalar:
        return self.bform(v, v)

    def reflection(self, e: Sequence) -> Matrix:
        """The reflection r_e : v -> v - 2 b(e,v)/b(e,e) e.

        Requires b(e, e) != 0; e may be Scalars or raw values.
        """
        return Matrix._from_raw(self.field, self.reflection_raw(self._raw(e), 1))

    def neg_reflection(self, e: Sequence) -> Matrix:
        """-r_e : v -> 2 b(e,v)/b(e,e) e - v, the Miyamoto action on E."""
        return Matrix._from_raw(self.field, self.reflection_raw(self._raw(e), -1))

    def reflection_raw(self, e: Sequence, sign: int) -> list[list]:
        """sign r_e as raw rows, for a raw vector e; no coercion.  For x = d e
        on integers (x = e over F_p), g = s G x and nrm = s d^2 b(e, e), entry
        (i, j) is sign (delta_ij - 2 x_i g_j / nrm): s and d cancel."""
        p = self.field.p
        x = e if p else cleared(e)[1]
        g = self._image(x)
        nrm = sum(map(operator.mul, x, g))
        if not (nrm % p if p else nrm):
            raise IsotropicVector("cannot reflect in a vector of norm zero")
        if p:
            f = 2 * sign * pow(nrm, -1, p)
            return [[(sign * (i == j) - f * a * b) % p for j, b in enumerate(g)] for i, a in enumerate(x)]
        return [[Fraction(sign * ((i == j) * nrm - 2 * a * b), nrm) for j, b in enumerate(g)]
                for i, a in enumerate(x)]

    def radical(self) -> tuple[Vector, ...]:
        """Basis of E-perp = {v : b(v, w) = 0 for all w}; empty iff b is non-degenerate."""
        return self.gram.kernel()

    def is_degenerate(self) -> bool:
        return bool(self.radical())

    # -- norm-one search -----------------------------------------------------

    def find_norm_one(self, budget: int = DEFAULT_NORM_ONE_BUDGET, seed: int = 0) -> NormOneSearch:
        """Vectors e with b(e, e) = 1.

        Over F_p with p**dim <= budget the list is exhaustive.  Otherwise up
        to `budget` candidates are tried, until MAX_SAMPLED vectors are found:
        deterministic simple vectors first, then seeded random ones, each
        rescaled when its norm is a nonzero square.  `spans` reports whether
        the returned vectors span E.
        """
        p = self.field.p
        if p is not None and p**self.dim <= budget:
            return self._norm_one_exhaustive()
        return self._norm_one_sampled(budget, seed)

    def _norm_one_exhaustive(self) -> NormOneSearch:
        n, p = self.dim, self.field.p
        found = [e for e in itertools.product(range(p), repeat=n) if self._form(e, e) % p == 1]
        span = Echelon(self.field)  # fed until it spans E
        spans = any(span.insert(sparse(e)) is not None and span.rank == n for e in found)
        return NormOneSearch(EXHAUSTIVE, tuple(boxed(self.field, e) for e in found), spans)

    def _norm_one_sampled(self, budget: int, seed: int) -> NormOneSearch:
        rng, n, p, scale = random.Random(seed), self.dim, self.field.p, self._scale
        found: list[Vector] = []
        seen, form = set(), {(i, j): c for i, j, c in self._terms}  # form: s G_ij, i <= j
        span = Echelon(self.field)  # of the vectors found, fed until it spans E

        def consider(w: list[int], norm: int) -> None:
            """Keep w / sqrt(b(w, w)) when b(w, w) = norm / s is a nonzero square; w is a candidate times a
            positive integer over Q, its residues over F_p.  Over Q it is keyed by reduced ints, boxed when new."""
            if p:
                if not norm % p or (root := sqrt_mod(norm, p)) is None:
                    return
                inv = pow(root, -1, p)
                key = tuple(a * inv % p for a in w)
            else:
                # b(w, w) = norm / scale is a rational square iff norm * scale is a square
                square = norm * scale
                root = math.isqrt(square) if square > 0 else 0
                if not root or root * root != square:
                    return
                g = math.gcd(root, scale * math.gcd(*w))  # w scale / root = key[1:] / key[0]
                key = (root // g, *(a * scale // g for a in w))
            if key not in seen:
                seen.add(key)
                found.append(boxed(self.field, key if p else (Fraction(c, key[0]) for c in key[1:])))
                if span.rank < n:
                    span.insert(sparse(w))  # w spans the line of the kept vector

        def candidates():
            """(w, s b(w, w)): the units and the pairs e_i +- e_j, their norms read off the terms, then random w."""
            for i in range(n):
                yield [int(t == i) for t in range(n)], form.get((i, i), 0)
            for i, j in itertools.combinations(range(n), 2):
                for sj in (1, -1):
                    norm = form.get((i, i), 0) + form.get((j, j), 0) + 2 * sj * form.get((i, j), 0)
                    yield [1 if t == i else sj if t == j else 0 for t in range(n)], norm
            while True:
                if p is None:
                    pairs = [(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    d = math.lcm(*(den for _, den in pairs))
                    w = [num * (d // den) for num, den in pairs]
                else:
                    w = [rng.randrange(p) for _ in range(n)]
                yield w, self._form(w, w)

        stagnant = 0
        for tried, (w, norm) in enumerate(candidates()):
            if tried >= budget:
                break
            before = len(found)
            consider(w, norm)
            stagnant = 0 if len(found) != before else stagnant + 1
            if len(found) >= MAX_SAMPLED:
                break
            if span.rank == n and stagnant >= 200:
                break  # a spanning set exists and new vectors stopped appearing
        if found:
            return NormOneSearch(SAMPLED, tuple(found), span.rank == n)
        return NormOneSearch(UNKNOWN, (), False)

    # -- orthogonal group sampling -------------------------------------------

    def sample_orthogonal(self, rng: random.Random) -> Matrix:
        """A random element of O(E, b): a product of at most dim reflections
        in random anisotropic vectors (Cartan-Dieudonne style sampling)."""
        result = Matrix.identity(self.field, self.dim)
        for _ in range(rng.randint(1, self.dim)):
            v = self._random_anisotropic(rng)
            if v is None:
                break  # the form is zero; O(E, b) fixes nothing to reflect in
            result = result @ self.reflection(v)
        return result

    def _random_anisotropic(self, rng: random.Random) -> Vector | None:
        for _ in range(200 * self.dim):
            if self.field.p is None:
                raw = [rng.randint(-3, 3) for _ in range(self.dim)]
            else:
                raw = [rng.randrange(self.field.p) for _ in range(self.dim)]
            v = self.vector(raw)
            if not self.norm(v).is_zero:
                return v
        return None
