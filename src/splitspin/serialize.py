"""JSON encodings shared by the CLI and the library.

Rationals serialize as reduced "a/b" strings with positive denominator,
prime-field elements as plain integers in [0, p), vectors and matrices as
row-major arrays, and algebras with a sparse structure-constant list of
[i, j, k, value] entries for i <= j.
"""

from __future__ import annotations

import math

from .algebra import SPLIT_SPIN, Algebra, Element
from .axial import AxisReport, FrobeniusForm
from .errors import DimensionMismatch
from .fields import Field
from .linalg import Matrix, Vector
from .quadratic import NormOneSearch
from .two_gen import AxetResult, YabeData


def raw_to_json(p: int | None, a):
    """A raw value as `Scalar.to_json` writes it, unboxed: the residue over
    F_p, "num/den" over Q."""
    return a if p else f"{a.numerator}/{a.denominator}"


def vector_to_json(v: Vector):
    return [c.to_json() for c in v]


def matrix_to_json(m: Matrix):
    p = m.field.p
    return [[raw_to_json(p, a) for a in row] for row in m.raw]


def scaled_to_json(p: int | None, scale: int, rows):
    """The int rows over scale (residues over F_p, where scale = 1) as `matrix_to_json` writes their matrix:
    each distinct int encoded once, with one gcd, and equal entries sharing one string."""
    codes = {} if p else {c: f"{c // g}/{scale // g}" for c in set().union(*rows) for g in [math.gcd(c, scale)]}
    return [list(row) if p else list(map(codes.__getitem__, row)) for row in rows]


def element_to_json(x: Element):
    p = x.algebra.field.p
    return [raw_to_json(p, a) for a in x.raw]


def algebra_to_json(algebra: Algebra):
    meta = algebra.meta
    doc = {
        "basis": list(algebra.labels),
        "field": algebra.field.to_json(),
        "dimension": algebra.dim,
        "kind": meta.kind,
        "structure_constants": [[i, j, k, raw_to_json(algebra.field.p, c)]
                                for i, j, k, c in algebra.raw_constants()],
    }
    if meta.alpha is not None:
        doc["alpha"] = meta.alpha.to_json()
    if meta.space is not None:
        doc["gram"] = matrix_to_json(meta.space.gram)
    if meta.kind == SPLIT_SPIN:
        doc["jordan_special"] = meta.jordan_special
    if meta.warnings:
        doc["warnings"] = list(meta.warnings)
    return doc


def algebra_from_json(doc) -> Algebra:
    """Rebuild an algebra from the interchange document.

    The meta tag keeps the kind label and parameters but reconstructed
    algebras are structural: products come from the stored sparse tensor.
    """
    from .algebra import AlgebraMeta
    from .quadratic import QuadraticSpace

    field = Field.from_json(doc["field"])
    labels = tuple(doc["basis"])
    if doc["dimension"] != len(labels):
        raise DimensionMismatch(f"dimension {doc['dimension']} but {len(labels)} basis labels")
    alpha = field.scalar(doc["alpha"]) if "alpha" in doc else None
    space = QuadraticSpace(Matrix(field, doc["gram"])) if "gram" in doc else None
    meta = AlgebraMeta(
        doc["kind"],
        alpha=alpha,
        space=space,
        warnings=tuple(doc.get("warnings", ())),
    )
    return Algebra(field, labels, doc["structure_constants"], meta)


def law_to_json(law):
    return {
        "kind": law.kind,
        "eigenvalues": [v.to_json() for v in law.eigenvalues],
    }


def axis_report_to_json(report: AxisReport):
    return {
        "axis": element_to_json(report.axis),
        "law": law_to_json(report.law),
        "dims": {str(lam): d for lam, d in report.dims.items()},
        "primitive": report.primitive,
        "violations": [
            [a.to_json(), b.to_json(), c.to_json()]
            for a, b, c in report.violations
        ],
        "miyamoto": None if report.tau is None else scaled_to_json(report.axis.algebra.field.p, *report.tau),
        "ok": report.ok,
    }


def frobenius_to_json(form: FrobeniusForm):
    return {
        "gram": matrix_to_json(form.gram),
        "radical": [element_to_json(v) for v in form.radical_basis],
        "rank": form.gram.cols - len(form.radical_basis),
    }


def norm_one_to_json(search: NormOneSearch):
    return {
        "status": search.status,
        "count": len(search.vectors),
        "spans": search.spans,
        "vectors": [vector_to_json(v) for v in search.vectors],
    }


def yabe_to_json(data: YabeData):
    basis = ["a0", "a1", "a_minus1", "q"]
    return {
        "basis": basis,
        "delta": data.delta.to_json(),
        "a0": element_to_json(data.a0),
        "a1": element_to_json(data.a1),
        "a_minus1": element_to_json(data.a_minus1),
        "q": element_to_json(data.q),
        "spans_algebra": data.spans_algebra,
        "structure_constants": [
            [vector_to_json(cell) for cell in row] for row in data.structure_constants
        ],
    }


def axet_to_json(result: AxetResult):
    return {
        "size": result.size.order if result.size.is_finite else result.size.kind,
        "split": result.d_orbit_split,
        "index": result.d_hat_index,
    }


def cover_report_to_json(report):
    return {
        "nil_ideal_ok": report.nil_ideal_ok,
        "no_identity_ok": report.no_identity_ok,
        "quotient_iso_ok": report.quotient_iso_ok,
        "z1": axis_report_to_json(report.z1_report),
        "axes": [axis_report_to_json(r) for r in report.axis_reports],
        "witnesses": [vector_to_json(v) for v in report.witnesses],
        "three_c_ok": report.three_c_ok,
        "frobenius_ok": report.frobenius_ok,
        "radical_ok": report.radical_ok,
        "radical": [element_to_json(v) for v in report.radical_basis],
        "all_ok": report.all_ok,
    }
