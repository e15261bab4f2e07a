"""Idempotent construction and classification.

A nonzero idempotent of the split spin factor is one of 1, z1, z2, or a
member of family (a) = (e + alpha z1 + (alpha + 1) z2)/2 or family
(b) = (e + (2 - alpha) z1 + (1 - alpha) z2)/2 with b(e, e) = 1; the cover
has z1 and the single family (e - z1 + n)/2.  Classification matches an
element against those templates; the exhaustive finite-field scan is the
independent oracle that nothing else exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import COVER, SPLIT_SPIN, Algebra, Element
from .errors import (
    BudgetExceeded,
    CharTwo,
    NotFiniteField,
    NotIdempotent,
    NotNormOne,
    WrongAlgebraKind,
    check,
)
from .linalg import Vector, vec_is_zero

FAMILY_A = "a"
FAMILY_B = "b"
FAMILY_EXC = "exc"

TAG_ONE = "one"
TAG_Z1 = "z1"
TAG_Z2 = "z2"
TAG_FAMILY_A = "family_a"
TAG_FAMILY_B = "family_b"
TAG_FAMILY_EXC = "family_exc"
TAG_OTHER = "other"


@dataclass(frozen=True)
class IdempotentClass:
    """Classification verdict: a template tag plus, for the families, the
    norm-one witness vector e.  "other" signals an element matching no
    template and carries the offending element."""

    tag: str
    e: Vector | None = None
    witness: Element | None = None


def is_idempotent(x: Element) -> bool:
    return (x * x).coords == x.coords


def family_axis(algebra: Algebra, e, family: str) -> Element:
    """The family idempotent attached to a norm-one vector e; verified to
    square to itself before being returned."""
    kind = algebra.meta.kind
    if kind not in (SPLIT_SPIN, COVER):
        raise WrongAlgebraKind(f"no idempotent families on a {kind} algebra")
    if algebra.field.characteristic == 2:
        raise CharTwo("idempotent families require characteristic != 2")
    space = algebra.meta.space
    e = space.vector(e)
    if not space.bform(e, e).is_one:
        raise NotNormOne("family idempotents require b(e, e) = 1")
    field = algebra.field
    half = field.half()
    one = field.one()
    coords = [half * c for c in e]
    if family == FAMILY_EXC:
        if kind != COVER:
            raise WrongAlgebraKind("family 'exc' lives on the cover algebra")
        coords += [-half, half]
    elif family == FAMILY_A:
        if kind != SPLIT_SPIN:
            raise WrongAlgebraKind("family 'a' lives on the split spin algebra")
        alpha = algebra.meta.alpha
        coords += [half * alpha, half * (alpha + one)]
    elif family == FAMILY_B:
        if kind != SPLIT_SPIN:
            raise WrongAlgebraKind("family 'b' lives on the split spin algebra")
        alpha = algebra.meta.alpha
        coords += [half * (2 - alpha), half * (one - alpha)]
    else:
        raise ValueError(f"unknown family {family!r}")
    x = algebra.element(coords)
    check(is_idempotent(x), "family template failed to square to itself", witness=x)
    return x


def classify_idempotent(algebra: Algebra, x: Element) -> IdempotentClass:
    """Match a nonzero idempotent against the known templates.

    Tag "other" is only ever produced when an idempotent matches nothing,
    which would contradict the classification under its hypotheses."""
    if x.is_zero or not is_idempotent(x):
        raise NotIdempotent("classification requires a nonzero idempotent")
    kind = algebra.meta.kind
    if kind not in (SPLIT_SPIN, COVER):
        raise WrongAlgebraKind(f"no idempotent classification on a {kind} algebra")
    field = algebra.field
    space = algebra.meta.space
    k = space.dim
    u = x.coords[:k]
    gamma, delta = x.coords[k], x.coords[k + 1]
    one, zero = field.one(), field.zero()

    if vec_is_zero(u):
        if kind == SPLIT_SPIN:
            if gamma.is_one and delta.is_one:
                return IdempotentClass(TAG_ONE)
            if gamma.is_one and delta.is_zero:
                return IdempotentClass(TAG_Z1)
            if gamma.is_zero and delta.is_one:
                return IdempotentClass(TAG_Z2)
        else:
            if gamma.is_one and delta.is_zero:
                return IdempotentClass(TAG_Z1)
        return IdempotentClass(TAG_OTHER, witness=x)

    if field.characteristic != 2:
        e = tuple(2 * c for c in u)
        if space.bform(e, e).is_one:
            half = field.half()
            if kind == COVER:
                if gamma == -half and delta == half:
                    return IdempotentClass(TAG_FAMILY_EXC, e=e)
            else:
                alpha = algebra.meta.alpha
                if gamma == half * alpha and delta == half * (alpha + one):
                    return IdempotentClass(TAG_FAMILY_A, e=e)
                if gamma == half * (2 - alpha) and delta == half * (one - alpha):
                    return IdempotentClass(TAG_FAMILY_B, e=e)
    return IdempotentClass(TAG_OTHER, witness=x)


def enumerate_idempotents_bruteforce(algebra: Algebra, budget: int = 1_000_000) -> tuple[Element, ...]:
    """Every nonzero x with x * x = x, found by scanning all p**dim
    coordinate vectors over a finite field.  Deterministic lexicographic
    order."""
    p = algebra.field.p
    if p is None:
        raise NotFiniteField("exhaustive idempotent scan needs a finite field")
    n = algebra.dim
    if p**n > budget:
        raise BudgetExceeded(f"{p}**{n} coordinate vectors exceed budget {budget}")
    table_int = [
        [tuple(int(c.value) for c in algebra.table[i][j]) for j in range(n)]
        for i in range(n)
    ]
    hits = []
    for coords in itertools.product(range(p), repeat=n):
        acc = [0] * n
        for i in range(n):
            xi = coords[i]
            if not xi:
                continue
            row = table_int[i]
            cell = row[i]
            w = xi * xi
            for k in range(n):
                if cell[k]:
                    acc[k] += w * cell[k]
            for j in range(i + 1, n):
                xj = coords[j]
                if not xj:
                    continue
                w2 = 2 * xi * xj
                cell = row[j]
                for k in range(n):
                    if cell[k]:
                        acc[k] += w2 * cell[k]
        if all((a - c) % p == 0 for a, c in zip(acc, coords)) and any(coords):
            hits.append(algebra.element(coords))
    return tuple(hits)
