"""Idempotent construction and classification.

A nonzero idempotent of the split spin factor is one of 1, z1, z2, or a
member of family (a) = (e + alpha z1 + (alpha + 1) z2)/2 or family
(b) = (e + (2 - alpha) z1 + (1 - alpha) z2)/2 with b(e, e) = 1; the cover
has z1 and the single family (e - z1 + n)/2.  `classes` writes that
classification down once; construction, classification and the expected
count read it.  The exhaustive finite-field scan is the independent oracle
that nothing else exists.
"""

from __future__ import annotations

import itertools
import math
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
from .linalg import _reduced, cleared, pruned, sparse, zero_one

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

DEFAULT_SCAN_BUDGET = 1_000_000  # coordinate vectors the brute-force scan may visit


@dataclass(frozen=True)
class IdempotentClass:
    """Classification verdict: a template tag plus, for the families, the
    norm-one witness vector e as raw coordinates `raw_e` over the algebra's
    field.  "other" signals an element matching no template and carries the
    offending element."""

    tag: str
    raw_e: tuple | None = None
    witness: Element | None = None


def classes(algebra: Algebra) -> dict[str, tuple]:
    """The paper's classification of the nonzero idempotents, in report
    order: tag -> (family, (gamma, delta), eta, templates), z and eta raw.
    A point class (family None) is gamma z1 + delta z2 (z2 is n on the
    cover); a family member is e/2 plus its z-part, one for each e with
    b(e, e) = 1.  An axis class is of Jordan type eta (z1, z2) or of Monster
    type (eta, 1/2) (a family), and its templates are its 0- and
    eta-eigenvectors as (e, z1, z2)-coefficients, ints (times q for
    alpha = r / q), None for the eta-space E of z1 and z2; the identity has
    neither.  The families need 1/2, so characteristic 2 has none.  The
    table is built once per algebra and kept on it; callers only read it."""
    if algebra._classes is not None:
        return algebra._classes
    kind, field = algebra.meta.kind, algebra.field
    if kind not in (SPLIT_SPIN, COVER):
        raise WrongAlgebraKind(f"no idempotent classes on a {kind} algebra")
    (zero, one), alpha, co_alpha = zero_one(field), algebra.meta.alpha.value, (1 - algebra.meta.alpha).value
    r, q = alpha.as_integer_ratio()  # the templates on ints: alpha = r / q (q = 1 over F_p)
    if kind == COVER:  # alpha = -1
        table = {TAG_Z1: (None, (one, zero), alpha, ((0, 0, 1), None))}
    else:
        table = {TAG_ONE: (None, (one, one), None, None), TAG_Z1: (None, (one, zero), alpha, ((0, 0, 1), None)),
                 TAG_Z2: (None, (zero, one), co_alpha, ((0, 1, 0), None))}
    if field.characteristic != 2:
        half = field.half().value
        if kind == COVER:
            table[TAG_FAMILY_EXC] = (FAMILY_EXC, (-half, half), alpha, ((0, 0, 1), (1, 3, -1)))
        else:
            table[TAG_FAMILY_A] = (FAMILY_A, (half * alpha, half * (alpha + 1)), alpha,
                                   ((q, r - 2 * q, r - q), (q, 2 * q - r, -r - q)))
            table[TAG_FAMILY_B] = (FAMILY_B, (half * (2 - alpha), half * (1 - alpha)), co_alpha,
                                   ((-q, r, r + q), (-q, 2 * q - r, -r - q)))
    algebra._classes = {tag: (family, tuple(_reduced(field.p, z)), *rest)
                        for tag, (family, z, *rest) in table.items()}
    return algebra._classes


def eigenbasis(algebra: Algebra, x: Element, values: Sequence) -> list[list[dict]] | None:
    """The paper's eigenvectors of the class idempotent x as sparse int
    vectors, one block per raw eigenvalue in values: x, then the templates
    of x's class in `classes`, then E's unit vectors for a point class or,
    for a family member, the e-perp vectors g_i e_j - g_j e_i, j != i, for
    g = s G e and g_i its first nonzero entry, all on the cleared ints dx x: a
    template (s, a1, a2) is dx (s e + a1 z1 + a2 z2), e = 2u.  Each vector is
    checked by one sparse product x v = lambda v against its block's value:
    1, 0, eta and, for a family, 1/2, as `axial.axis_law` reads them off the
    table.  None when x is in no axis class, values does not hold one value
    per block, or a check fails."""
    if algebra.meta.kind not in (SPLIT_SPIN, COVER):
        return None
    table, (dx, xi) = classes(algebra), cleared(x.raw)
    if (match := _matcher(algebra, table)(dx, xi)) is None:
        return None
    (tag, image), p, k = match, algebra.field.p, algebra.meta.space.dim
    templates, units = table[tag][3], [{j: 1} for j in range(k)]
    if templates is None or len(values) != 3 + bool(image):
        return None
    if image:
        g = _reduced(p, image)  # a multiple of G e, from the matcher's norm-one test
        i = next(i for i, c in enumerate(g) if c)
        units = [pruned(None, {j: g[i], i: -g[j]}) for j in range(k) if j != i]
    blocks = [[sparse(xi)], *([sparse([2 * s * c for c in xi[:k]] + [a1 * dx, a2 * dx])]
                              for s, a1, a2 in filter(None, templates)), units]
    scale, xi = algebra.denominator * dx, blocks[0][0]
    for (a, q), block in zip((value.as_integer_ratio() for value in values), blocks):
        for v in block:  # q D dx (x v) = a D dx v
            xv = algebra._mul_coords(xi, v)
            if any(_reduced(p, (q * xv.get(j, 0) - a * scale * v.get(j, 0) for j in xv.keys() | v.keys()))):
                return None
    return blocks


def expected_count(algebra: Algebra, norm_one: int) -> int:
    """The number of nonzero idempotents, given the number of norm-one
    vectors, when alpha is not Jordan-special: one per point class, and one
    per family and norm-one vector."""
    table = classes(algebra)
    families = sum(family is not None for family, *_ in table.values())
    return len(table) - families + families * norm_one


def is_idempotent(x: Element) -> bool:
    """Whether x x = x, on the cleared ints v = d x (the residues over F_p, where D = d = 1): D v v = D d v."""
    algebra = x.algebra
    (d, xi), s = (1, x.raw) if algebra.field.p else cleared(x.raw), algebra.denominator
    return algebra._mul_coords(v := sparse(xi), v) == (v if s * d == 1 else {j: s * d * c for j, c in v.items()})


def family_axis(algebra: Algebra, e, family: str) -> Element:
    """The family idempotent attached to a norm-one vector e; verified to
    square to itself before being returned."""
    table = classes(algebra)
    if algebra.field.characteristic == 2:
        raise CharTwo("idempotent families require characteristic != 2")
    space = algebra.meta.space
    e = space._raw(e)
    if space._norm_one_image(*cleared(e)) is None:
        raise NotNormOne("family idempotents require b(e, e) = 1")
    z_parts = {fam: z for fam, z, *_ in table.values() if fam}
    if family not in z_parts:
        if family in (FAMILY_A, FAMILY_B, FAMILY_EXC):
            raise WrongAlgebraKind(f"no family {family!r} on the {algebra.meta.kind} algebra")
        raise ValueError(f"unknown family {family!r}")
    half = algebra.field.half().value
    x = Element(algebra, _reduced(algebra.field.p, [half * a for a in e]) + list(z_parts[family]))
    check(is_idempotent(x), "family template failed to square to itself", witness=x)
    return x


def classify_idempotent(algebra: Algebra, x: Element) -> IdempotentClass:
    """Match one nonzero idempotent against the known templates; see
    `classify_idempotents`."""
    return classify_idempotents(algebra, [x])[0]


def classify_idempotents(algebra: Algebra, xs: Sequence[Element]) -> list[IdempotentClass]:
    """Match nonzero idempotents against the `classes` of the algebra, in
    order; a zero or non-idempotent x raises NotIdempotent.  Tag "other" is
    only ever produced when an idempotent matches nothing, which would
    contradict the classification under its hypotheses."""
    match, out, p, k = _matcher(algebra, classes(algebra)), [], algebra.field.p, algebra.e_dim
    for x in xs:
        if x.is_zero or not is_idempotent(x):
            raise NotIdempotent("classification requires a nonzero idempotent")
        tag, image = match(*((1, x.raw) if p else cleared(x.raw))) or (TAG_OTHER, None)
        raw_e = image and tuple(_reduced(p, (2 * a for a in x.raw[:k])))  # a family member's e = 2u
        out.append(IdempotentClass(tag, raw_e, x if tag == TAG_OTHER else None))
    return out


def _matcher(algebra: Algebra, table: dict):
    """Cleared coordinates (d, d x) -> (the tag of x's class in the `classes`
    table, keyed by the z-part's ints over their least denominator, and for
    a family member s G y, y = d e for e = 2u), or None: a point class
    matches on the z-part, a family member also needs b(e, e) = 1."""
    space, k = algebra.meta.space, algebra.meta.space.dim
    keys = {(family is not None, d, *ints): tag for tag, (family, z, *_) in table.items() for d, ints in [cleared(z)]}
    def match(d: int, x: Sequence[int]) -> tuple | None:
        g, family = math.gcd(d, *x[k:]), any(x[:k])
        if (tag := keys.get((family, d // g, x[k] // g, x[k + 1] // g))) is None or not family:
            return tag and (tag, None)
        image = space._norm_one_image(d, [2 * c for c in x[:k]])  # unreduced: the norm is tested mod p
        return image and (tag, image)
    return match


def enumerate_idempotents_bruteforce(algebra: Algebra, budget: int = DEFAULT_SCAN_BUDGET) -> tuple[Element, ...]:
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
