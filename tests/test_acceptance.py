"""Acceptance criteria, one test per criterion, all exact with zero
tolerance.  Each test prints a PASS line so -s or failure output shows the
per-criterion verdict; `splitspin selftest` runs the same registry."""

import os
import subprocess
import sys
import textwrap

import pytest

import splitspin
from splitspin.acceptance import CRITERIA


@pytest.mark.parametrize(
    "number, description, criterion",
    CRITERIA,
    ids=[f"criterion_{number:02d}" for number, _, _ in CRITERIA],
)
def test_acceptance(number, description, criterion):
    criterion()
    print(f"PASS criterion {number}: {description}")


def test_selftest_reports_every_criterion_when_the_algebra_is_broken(monkeypatch, capsys):
    """A split spin table whose z2 coefficient of e f is doubled makes some
    criteria fail with a typed error; selftest still reports all eleven and
    exits 1."""
    import splitspin.acceptance
    import splitspin.algebra
    import splitspin.cli
    import splitspin.cover
    import splitspin.two_gen
    from splitspin.algebra import Algebra
    from splitspin.cli import main

    original = splitspin.algebra.split_spin

    def broken_split_spin(space, alpha):
        good = original(space, alpha)
        k = space.dim
        constants = [(i, j, t, c * 2 if j < k and t == k + 1 else c)
                     for i, j, t, c in good.constants]
        return Algebra(good.field, good.labels, constants, good.meta)

    for module in (splitspin.algebra, splitspin.acceptance, splitspin.cli,
                   splitspin.cover, splitspin.two_gen):
        monkeypatch.setattr(module, "split_spin", broken_split_spin)
    code = main(["selftest"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert [line.split(":")[0].split()[-1] for line in lines] == [str(n) for n, _, _ in CRITERIA]
    assert all(line.startswith(("PASS criterion", "FAIL criterion")) for line in lines)
    assert any(line.startswith("FAIL") for line in lines)


def test_criterion_1_fails_under_optimize_when_z1_plus_z2_is_not_the_identity():
    """python -O strips assert statements; criterion 1 must still check the
    identity.  Doubling z2 z2 leaves the product commutative, but z1 + z2
    no longer fixes z2."""
    script = textwrap.dedent(
        """
        import sys
        from splitspin import acceptance
        from splitspin.algebra import Algebra
        from splitspin.cli import main

        assert False, "assert statements run: not optimised"
        build = acceptance.split_spin

        def broken(space, alpha):
            good = build(space, alpha)
            z2 = space.dim + 1
            constants = [(i, j, t, 2 * c if i == j == t == z2 else c) for i, j, t, c in good.constants]
            return Algebra(good.field, good.labels, constants, good.meta)

        acceptance.split_spin = broken
        sys.exit(main(["selftest", "--only", "1"]))
        """
    )
    src = os.path.dirname(os.path.dirname(splitspin.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith("FAIL criterion 1: ")
    assert "(VerificationFailed: the identity is not z1 + z2; witness " in proc.stdout
    assert "Traceback" not in proc.stderr


def test_criterion_4_fails_under_optimize_when_an_e_product_leaves_z():
    """python -O strips assert statements; criterion 4 must still judge the
    z1 axis check.  Giving e1 e1 an e2 component puts an alpha-eigenvector
    into alpha * alpha, which the Jordan law on z1 forbids."""
    script = textwrap.dedent(
        """
        import sys
        from splitspin import acceptance
        from splitspin.algebra import Algebra
        from splitspin.cli import main

        assert False, "assert statements run: not optimised"
        build = acceptance.split_spin

        def broken(space, alpha):
            good = build(space, alpha)
            constants = list(good.constants) + [(0, 0, 1, 1)]  # e1 e1 += e2
            return Algebra(good.field, good.labels, constants, good.meta)

        acceptance.split_spin = broken
        sys.exit(main(["selftest", "--only", "4"]))
        """
    )
    src = os.path.dirname(os.path.dirname(splitspin.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith("FAIL criterion 4: ")
    assert "(VerificationFailed: z1 is not a Jordan axis of type " in proc.stdout
    assert "Traceback" not in proc.stderr


def test_criterion_10_fails_under_optimize_when_rho_has_a_wrong_order():
    """python -O strips assert statements; criterion 10 must still compare
    the rho order with the expected axet sizes.  A rho_order that always
    reports a finite order 5 contradicts the infinite order at mu = -1."""
    script = textwrap.dedent(
        """
        import sys
        from splitspin import acceptance
        from splitspin.cli import main
        from splitspin.two_gen import OrbitSize

        assert False, "assert statements run: not optimised"
        acceptance.rho_order = lambda field, mu, cap=None: OrbitSize.finite(5)
        sys.exit(main(["selftest", "--only", "10"]))
        """
    )
    src = os.path.dirname(os.path.dirname(splitspin.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith("FAIL criterion 10: ")
    assert "(VerificationFailed: rho(-1) over Q has finite order; witness " in proc.stdout
    assert "Traceback" not in proc.stderr


def test_run_all_reports_any_exception_and_goes_on():
    """A criterion that raises something other than a SplitSpinError is a
    FAIL line with its type and message, the later criteria still run, the
    exit code is 1 and no traceback escapes.  A failed check also shows its
    witness, cut to 200 characters."""
    script = textwrap.dedent(
        """
        import sys
        from splitspin import acceptance
        from splitspin.cli import main
        from splitspin.errors import VerificationFailed

        def broken():
            raise TypeError("unsupported operand")

        def failed():
            raise VerificationFailed("wrong count", witness="w" * 500)

        acceptance.CRITERIA = ((1, "broken", broken), (2, "failed", failed), (3, "fine", lambda: None))
        sys.exit(main(["selftest"]))
        """
    )
    src = os.path.dirname(os.path.dirname(splitspin.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "FAIL criterion 1: broken (TypeError: unsupported operand)",
        "FAIL criterion 2: failed (VerificationFailed: wrong count; witness '" + "w" * 199 + ")",
        "PASS criterion 3: fine",
    ]
    assert "Traceback" not in proc.stderr


def test_criterion_6_checks_the_s3_invariance(monkeypatch):
    """Criterion 6 runs the S3 invariance of the dim E = 1 Frobenius form
    over Q, then over F_7, and fails with the field as witness."""
    import splitspin.acceptance
    from splitspin import Field
    from splitspin.errors import VerificationFailed

    seen = []

    def invariant_over_q_only(algebra, e):
        seen.append((algebra.field, algebra.e_dim, tuple(e)))
        return algebra.field.p is None

    monkeypatch.setattr(splitspin.acceptance, "frobenius_s3_invariant", invariant_over_q_only)
    with pytest.raises(VerificationFailed, match="permuting x, x\\^- and z1") as info:
        splitspin.acceptance.criterion_6()
    assert info.value.witness == Field.prime(7)
    assert seen == [(Field.rationals(), 1, (1,)), (Field.prime(7), 1, (1,))]


def test_criterion_7_fails_when_the_radical_of_b_comes_out_empty(monkeypatch):
    """Criterion 7 solves the kernel of b itself: with `QuadraticSpace.radical`
    returning no vectors, the lifted radical and the Frobenius radical of the
    degenerate Gram fall short of it, and the criterion fails."""
    import splitspin.acceptance
    from splitspin.errors import VerificationFailed
    from splitspin.quadratic import QuadraticSpace

    monkeypatch.setattr(QuadraticSpace, "radical", lambda self: ())
    with pytest.raises(VerificationFailed) as info:
        splitspin.acceptance.criterion_7()
    assert info.value.witness == (3, [[1, 1], [1, 1]])
