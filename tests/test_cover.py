import pytest

from splitspin import (
    Field,
    Matrix,
    QuadraticSpace,
    cover_aut_membership,
    exceptional_cover,
    extend_orthogonal,
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
    assert report.radical_ok  # the radical is still checked, against E-perp + <n>


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


def test_cover_aut_membership_reflection():
    sp = space(QQ, [[1, 0], [0, 1]])
    algebra = exceptional_cover(sp)
    m = extend_orthogonal(algebra, sp.neg_reflection([1, 0]))
    assert cover_aut_membership(sp, m)


def test_cover_aut_membership_rejects_nil_scaling_when_form_nonzero():
    sp = space(QQ, [[1, 0], [0, 1]])
    scale_n = Matrix.diagonal(QQ, [1, 1, 1, 2])
    assert not cover_aut_membership(sp, scale_n)


def test_cover_aut_membership_allows_nil_scaling_when_form_zero():
    sp = space(QQ, [[0, 0], [0, 0]])
    scale_n = Matrix.diagonal(QQ, [1, 1, 1, 2])
    assert cover_aut_membership(sp, scale_n)


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
