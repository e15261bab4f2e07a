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
from typing import Sequence

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
from .fields import Field
from .linalg import Vector, boxed, zero_one

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
    norm-one witness vector e, kept raw as `raw_e` over `field` and boxed
    only when `e` is read.  "other" signals an element matching no template
    and carries the offending element."""

    tag: str
    raw_e: tuple | None = None
    field: Field | None = None
    witness: Element | None = None

    @property
    def e(self) -> Vector | None:
        return None if self.raw_e is None else boxed(self.field, self.raw_e)


def is_idempotent(x: Element) -> bool:
    return (x * x).raw == x.raw


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
    """Match one nonzero idempotent against the known templates; see
    `classify_idempotents`."""
    return classify_idempotents(algebra, [x])[0]


def classify_idempotents(algebra: Algebra, xs: Sequence[Element]) -> list[IdempotentClass]:
    """Match nonzero idempotents against the known templates, in order.

    Every x is squared again from the stored cells, so a zero or
    non-idempotent x raises NotIdempotent.  The templates (the (gamma,
    delta) points of 1, z1, z2 and of the families) are built once, on raw
    values, and the form tests b(e, e) = 1 for e = 2u on raw values too.  Tag
    "other" is only ever produced when an idempotent matches nothing, which
    would contradict the classification under its hypotheses."""
    field, p = algebra.field, algebra.field.p
    cells = _square_cells(algebra, algebra.dim)
    points = [_raw_idempotent(x, cells, p) for x in xs]
    kind = algebra.meta.kind
    if kind not in (SPLIT_SPIN, COVER):
        raise WrongAlgebraKind(f"no idempotent classification on a {kind} algebra")
    zero, one = zero_one(field)
    half, alpha = (p + 1) // 2 if p else one / 2, algebra.meta.alpha.value
    if kind == COVER:
        corners, families = {(one, zero): TAG_Z1}, {(-half, half): TAG_FAMILY_EXC}
    else:
        corners = {(one, one): TAG_ONE, (one, zero): TAG_Z1, (zero, one): TAG_Z2}
        families = {(half * alpha, half * (alpha + 1)): TAG_FAMILY_A,
                    (half * (2 - alpha), half * (1 - alpha)): TAG_FAMILY_B}
    if field.characteristic == 2:
        families = {}  # no half, so no family
    elif p:
        families = {(g % p, d % p): tag for (g, d), tag in families.items()}
    space = algebra.meta.space
    k = space.dim
    out = []
    for x, raw in zip(xs, points):
        u, z = raw[:k], (raw[k], raw[k + 1])
        verdict = None
        if not any(u):
            if z in corners:
                verdict = IdempotentClass(corners[z])
        elif z in families:
            e = tuple(2 * a % p for a in u) if p else tuple(2 * a for a in u)
            if space.is_norm_one_raw(e):
                verdict = IdempotentClass(families[z], e, field)
        out.append(verdict or IdempotentClass(TAG_OTHER, witness=x))
    return out


def _raw_idempotent(x: Element, cells: list, p: int | None) -> list:
    """The raw coordinates of x, once x is nonzero and squares to itself
    over the `_square_cells`; NotIdempotent otherwise."""
    raw = x.raw
    square = [0] * len(raw)
    for i, j, cell in cells:
        w = raw[i] * raw[j]
        if w:
            for k, c in cell:
                square[k] += w * c
    if not any(raw) or any((s - a) % p if p else s != a for s, a in zip(square, raw)):
        raise NotIdempotent("classification requires a nonzero idempotent")
    return raw


def enumerate_idempotents_bruteforce(algebra: Algebra, budget: int = 1_000_000) -> tuple[Element, ...]:
    """Every nonzero x with x * x = x, found by scanning all p**dim
    coordinate vectors over a finite field.  Deterministic lexicographic
    order.

    The scan goes one line at a time.  With m = n - 2 and last = n - 1, write
    x = h + s b_m + t b_last for a head h on the first n - 2 coordinates.
    Coordinate k of x^2 - x is a_k + b_k t + c_k t^2 with
        a = (h^2 - h) + s (2 h b_m - b_m) + s^2 b_m^2,
        b = (2 h b_last - b_last) + 2 s b_m b_last,   c = b_last^2,
    so each head costs one pass over the stored cells, and each line
    (h, s) tests every t in F_p against one coordinate after another,
    stopping at the first coordinate that leaves no candidate.  Only the
    stored structure cells are read."""
    p = algebra.field.p
    if p is None:
        raise NotFiniteField("exhaustive idempotent scan needs a finite field")
    n = algebra.dim
    if p**n > budget:
        raise BudgetExceeded(f"{p}**{n} coordinate vectors exceed budget {budget}")
    every_t = range(p)
    if n == 1:
        # the algebra is the single line t b_0, and (t b_0)^2 = t^2 c b_0
        (c,) = _dense(algebra, 0, 0)
        return tuple(Element(algebra, (t,)) for t in every_t if t and (t * t * c - t) % p == 0)
    last = n - 1
    m = n - 2
    head_cells = _square_cells(algebra, m)
    cross_cells = [(i, _doubled(algebra, i, m)) for i in range(m) if algebra.cell(i, m)]
    line_cells = [(i, _doubled(algebra, i, last)) for i in range(m) if algebra.cell(i, last)]
    m_square = _dense(algebra, m, m)
    m_line = [2 * c for c in _dense(algebra, m, last)]
    quadratic = _dense(algebra, last, last)
    # coordinates whose polynomial is constant in t come first: a nonzero
    # constant rules out the whole line without testing any t
    moving = {last} | {k for k in range(n) if quadratic[k] or m_line[k]}
    moving |= {k for _, cell in line_cells for k, _ in cell}
    order = sorted(range(n), key=lambda k: k in moving)
    hits = []
    for head in itertools.product(every_t, repeat=m):
        square = [-y for y in head] + [0, 0]
        for i, j, cell in head_cells:
            w = head[i] * head[j]
            if w:
                for k, c in cell:
                    square[k] += w * c
        cross = _line_part(head, cross_cells, m, n)
        line = _line_part(head, line_cells, last, n)
        for s in every_t:
            candidates = every_t
            for k in order:
                a = (square[k] + s * (cross[k] + s * m_square[k])) % p
                b = (line[k] + s * m_line[k]) % p
                c = quadratic[k]
                if b or c:
                    candidates = [t for t in candidates if (a + t * (b + t * c)) % p == 0]
                    if not candidates:
                        break
                elif a:
                    break
            else:
                for t in candidates:
                    if t or s or any(head):
                        hits.append(Element(algebra, head + (s, t)))
    return tuple(hits)


def _line_part(head: tuple, cells: list, j: int, n: int) -> list:
    """2 h b_j - b_j for the head h, from the (i, 2 b_i b_j) cells."""
    v = [0] * n
    v[j] = -1
    for i, cell in cells:
        if head[i]:
            for k, c in cell:
                v[k] += head[i] * c
    return v


def _dense(algebra: Algebra, i: int, j: int) -> list:
    """b_i b_j as a dense list of raw coordinates."""
    v = [0] * algebra.dim
    for k, c in algebra.cell(i, j):
        v[k] = c
    return v


def _square_cells(algebra: Algebra, m: int) -> list:
    """The (i, j, b_i b_j) cells for i = j and (i, j, 2 b_i b_j) for i < j,
    i, j < m, that are nonzero: x^2 = sum over them of x_i x_j times the
    cell, for x on the first m coordinates."""
    return [
        (i, j, algebra.cell(i, j) if i == j else _doubled(algebra, i, j))
        for i in range(m)
        for j in range(i, m)
        if algebra.cell(i, j)
    ]


def _doubled(algebra: Algebra, i: int, j: int) -> tuple:
    """The stored (k, 2c) pairs of 2 b_i b_j."""
    return tuple((k, 2 * c) for k, c in algebra.cell(i, j))
