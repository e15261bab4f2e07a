import pytest

from splitspin import (
    Field,
    Matrix,
    QuadraticSpace,
    exceptional_cover,
    verify_cover,
)
from splitspin.errors import BadCharacteristic, VerificationFailed

QQ = Field.rationals()
F5 = Field.prime(5)
F7 = Field.prime(7)


def space(field, rows):
    return QuadraticSpace(Matrix(field, rows))


def test_verify_cover_reports_failed_frobenius_check(monkeypatch):
    import splitspin.cover as cover

    def failing(algebra):
        raise VerificationFailed("Frobenius associativity fails", (0, 0, 1))

    monkeypatch.setattr(cover, "frobenius", failing)
    report = verify_cover(space(QQ, [[1, 0], [0, 1]]))
    assert not report.frobenius_ok and not report.all_ok
    assert report.radical_ok  # algebra_radical still checks that E-perp + <n> is an ideal


def test_radical_ok_fails_when_the_gram_misses_the_radical(monkeypatch):
    """radical_ok asks the Frobenius gram to annihilate the radical: a gram
    with a nonzero (n, n) entry fails it, while the form itself still builds."""
    import dataclasses

    import splitspin.cover as cover
    from splitspin.axial import frobenius

    def perturbed(algebra):
        form = frobenius(algebra)
        rows = [list(row) for row in form.gram.raw]
        rows[-1][-1] = 1
        return dataclasses.replace(form, gram=Matrix(algebra.field, rows))

    monkeypatch.setattr(cover, "frobenius", perturbed)
    for field, rows in ((QQ, [[1, 0], [0, 1]]), (QQ, [[1, 1], [1, 1]]), (F7, [[1, 2], [2, 4]])):
        report = verify_cover(space(field, rows))
        assert report.frobenius_ok and not report.radical_ok and not report.all_ok


def test_verify_cover_computes_the_gram_kernel_once(monkeypatch):
    # E-perp is read twice, by frobenius and by algebra_radical
    from splitspin.linalg import Matrix as LinalgMatrix

    kernel_raw = LinalgMatrix.kernel_raw
    grams = []

    def counting(m):
        grams.append(m.raw)
        return kernel_raw(m)

    monkeypatch.setattr(LinalgMatrix, "kernel_raw", counting)
    for field, rows in ((QQ, [[1, 1], [1, 1]]), (F7, [[1, 2], [2, 4]]), (QQ, [[1, 0], [0, 2]])):
        form = space(field, rows)
        grams.clear()
        report = verify_cover(form)
        assert report.all_ok
        assert grams.count(form.gram.raw) == 1


def test_verify_cover_identity_gram():
    report = verify_cover(space(QQ, [[1, 0], [0, 1]]))
    assert report.all_ok
    assert report.nil_ideal_ok
    assert report.no_identity_ok
    assert report.quotient_iso_ok
    assert report.three_c_ok
    assert report.frobenius_ok
    assert report.radical_ok
    # non-degenerate b: the radical is exactly <n>
    assert len(report.radical_basis) == 1
    n_index = report.algebra.label_index("n")
    assert report.radical_basis[0].coords[n_index].is_one


def test_verify_cover_degenerate_gram():
    report = verify_cover(space(QQ, [[1, 1], [1, 1]]))
    assert report.all_ok
    assert len(report.radical_basis) == 2  # the (1, -1) lift plus n


def test_verify_cover_finite_fields():
    for field in (F5, F7):
        report = verify_cover(space(field, [[1, 0], [0, 1]]), seed=3)
        assert report.all_ok
        assert report.witnesses
        for axis_report in report.axis_reports:
            assert list(axis_report.dims.values()) == [1, 1, 1, 1]


def test_verify_cover_dimension_one():
    report = verify_cover(space(QQ, [[1]]))
    assert report.all_ok
    for axis_report in report.axis_reports:
        assert list(axis_report.dims.values()) == [1, 1, 1, 0]


def test_verify_cover_no_witnesses():
    # negative definite over the rationals: no norm-one vectors found, so
    # the family checks are vacuous but the structural flags still compute
    report = verify_cover(space(QQ, [[-1]]), norm_one_budget=200)
    assert report.witnesses == ()
    assert report.three_c_ok is None
    assert report.axis_reports == ()
    assert report.nil_ideal_ok and report.no_identity_ok and report.quotient_iso_ok
    assert report.all_ok


def test_verify_cover_rejects_small_characteristic():
    with pytest.raises(BadCharacteristic):
        verify_cover(space(Field.prime(3), [[1]]))
    with pytest.raises(BadCharacteristic):
        verify_cover(space(Field.prime(2), [[1]]))


def test_w_z1_n_is_a_subalgebra():
    sp = space(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    algebra = exceptional_cover(sp)
    gens = [algebra.basis(0), algebra.basis_by_label("z1"), algebra.basis_by_label("n")]
    sub = algebra.subalgebra(gens)
    assert sub.algebra.dim == 3 and sub.closure_degree == 1
    # and it is a copy of the one-dimensional cover
    model = exceptional_cover(space(QQ, [[1]]))
    ok, _ = model.check_isomorphism(sub.algebra, Matrix.identity(QQ, 3))
    assert ok


def test_exceptional_family_coefficients():
    # every family idempotent has z1-coefficient -1/2 and n-coefficient 1/2
    from splitspin import classify_idempotent, enumerate_idempotents_bruteforce

    sp = space(F5, [[1, 0], [0, 1]])
    algebra = exceptional_cover(sp)
    half = F5.half()
    for x in enumerate_idempotents_bruteforce(algebra):
        verdict = classify_idempotent(algebra, x)
        if verdict.tag == "family_exc":
            assert x.coords[2] == -half and x.coords[3] == half
            u = x.coords[:2]
            assert sp.bform(u, u) == half * half
