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
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch, IsotropicVector
from .fields import Field, Scalar, sqrt_mod
from .linalg import Matrix, Vector, boxed, raw_values, span_rank

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class NormOneSearch:
    """Outcome of a norm-one vector search."""

    status: str  # "exhaustive" | "sampled" | "unknown"
    vectors: tuple[Vector, ...]
    spans: bool


class QuadraticSpace:
    """A vector space of dimension dim with a symmetric bilinear form b."""

    __slots__ = ("gram",)

    def __init__(self, gram: Matrix):
        if not gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        self.gram = gram

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

    def vector(self, values: Sequence) -> Vector:
        return boxed(self.field, self._raw(values))

    def bform(self, u: Sequence, v: Sequence) -> Scalar:
        """b(u, v) = u^T G v, on Scalars or raw values."""
        return self.gram.bilinear(u, v)

    def norm(self, v: Sequence) -> Scalar:
        return self.bform(v, v)

    def reflection(self, e: Sequence) -> Matrix:
        """The reflection r_e : v -> v - 2 b(e,v)/b(e,e) e.

        Requires b(e, e) != 0; e may be Scalars or raw values.  The negated
        reflection -r_e (the Miyamoto action on E) is available as
        neg_reflection.
        """
        e = self._raw(e)
        nrm = self.gram.bilinear(e, e).value
        if not nrm:
            raise IsotropicVector("cannot reflect in a vector of norm zero")
        ge = self.gram.apply_raw(e)
        p = self.field.p
        factor = 2 * pow(nrm, -1, p) if p else 2 / nrm
        n = self.dim
        rows = [[int(i == j) - factor * e[i] * ge[j] for j in range(n)] for i in range(n)]
        return Matrix(self.field, rows)

    def neg_reflection(self, e: Sequence) -> Matrix:
        return -self.reflection(e)

    def radical(self) -> tuple[Vector, ...]:
        """Basis of E-perp = {v : b(v, w) = 0 for all w}; empty iff b is non-degenerate."""
        return self.gram.kernel()

    def is_degenerate(self) -> bool:
        return bool(self.radical())

    # -- norm-one search -----------------------------------------------------

    def find_norm_one(
        self, budget: int = 100_000, seed: int = 0, max_results: int = 16
    ) -> NormOneSearch:
        """Vectors e with b(e, e) = 1.

        Over F_p with p**dim <= budget the list is exhaustive.  Otherwise up
        to `budget` candidates are tried: deterministic simple vectors first,
        then seeded random ones, each rescaled when its norm is a nonzero
        square.  `spans` reports whether the returned vectors span E.
        """
        p = self.field.p
        if p is not None and p**self.dim <= budget:
            return self._norm_one_exhaustive()
        return self._norm_one_sampled(budget, seed, max_results)

    def _norm_one_exhaustive(self) -> NormOneSearch:
        p = self.field.p
        n = self.dim
        gram_int = self.gram.raw
        found = []
        for coords in itertools.product(range(p), repeat=n):
            acc = 0
            for i in range(n):
                ci = coords[i]
                if not ci:
                    continue
                acc += ci * ci * gram_int[i][i]
                for j in range(i + 1, n):
                    if coords[j]:
                        acc += 2 * ci * coords[j] * gram_int[i][j]
            if acc % p == 1:
                found.append(self.vector(coords))
        spans = span_rank(self.field, found) == n if found else False
        return NormOneSearch(EXHAUSTIVE, tuple(found), spans)

    def _norm_one_sampled(self, budget: int, seed: int, max_results: int) -> NormOneSearch:
        rng = random.Random(seed)
        n = self.dim
        p = self.field.p
        # scale * G has int entries, and b(w, w) = w^T (scale * G) w / scale; scale = 1 over F_p
        scale = math.lcm(*(a.denominator for row in self.gram.raw for a in row))
        gram = [[a.numerator * (scale // a.denominator) for a in row] for row in self.gram.raw]
        found: list[Vector] = []
        seen = set()

        def consider(w: list[int]) -> None:
            """Keep w / sqrt(b(w, w)) when b(w, w) is a nonzero square; w is a
            candidate times a positive integer over Q, its residues over F_p."""
            norm = 0
            for i, wi in enumerate(w):
                if wi:
                    row = gram[i]
                    acc = row[i] * wi
                    for j in range(i + 1, n):
                        if w[j]:
                            acc += 2 * row[j] * w[j]
                    norm += wi * acc
            if p:
                root = sqrt_mod(norm, p) if norm % p else None
                if root is None:
                    return
                inv = pow(root, -1, p)
                scaled = tuple(a * inv % p for a in w)
            else:
                # b(w, w) = norm / scale is a rational square iff norm * scale is a square
                square = norm * scale
                root = math.isqrt(square) if square > 0 else 0
                if not root or root * root != square:
                    return
                scaled = tuple(Fraction(a * scale, root) for a in w)
            if scaled not in seen:
                seen.add(scaled)
                found.append(boxed(self.field, scaled))

        def candidates():
            for i in range(n):
                base = [0] * n
                base[i] = 1
                yield base
            for i in range(n):
                for j in range(i + 1, n):
                    for si, sj in ((1, 1), (1, -1)):
                        base = [0] * n
                        base[i], base[j] = si, sj
                        yield base
            while True:
                if p is None:
                    pairs = [(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    d = math.lcm(*(den for _, den in pairs))
                    yield [num * (d // den) for num, den in pairs]
                else:
                    yield [rng.randrange(p) for _ in range(n)]

        spans_now = False
        stagnant = 0
        for tried, w in enumerate(candidates()):
            if tried >= budget:
                break
            before = len(found)
            consider(w)
            if len(found) != before:
                stagnant = 0
                if not spans_now:
                    spans_now = span_rank(self.field, found) == n
            else:
                stagnant += 1
            if len(found) >= max_results:
                break
            if spans_now and stagnant >= 200:
                break  # a spanning set exists and new vectors stopped appearing
        if found:
            return NormOneSearch(SAMPLED, tuple(found), span_rank(self.field, found) == n)
        return NormOneSearch(UNKNOWN, (), False)

    # -- orthogonal group sampling -------------------------------------------

    def sample_orthogonal(self, rng: random.Random, reflections: int | None = None) -> Matrix:
        """A random element of O(E, b): a product of at most dim reflections
        in random anisotropic vectors (Cartan-Dieudonne style sampling)."""
        count = reflections if reflections is not None else rng.randint(1, self.dim)
        result = Matrix.identity(self.field, self.dim)
        for _ in range(count):
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
