import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splitspin

from splitspin import cli
from splitspin.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *args):
    code, out = run_cli(capsys, *args)
    return code, json.loads(out)


def test_axet_prime_example(capsys):
    code, doc = run_json(capsys, "axet", "--p", "7", "--mu", "1")
    assert code == 0
    assert doc["size"] == 7 and doc["split"] == "single" and doc["index"] == 1


def test_axet_sweep_preserves_order(capsys):
    # negative leading values need the = form, as usual with argparse
    code, doc = run_json(capsys, "axet", "--mu=-1,-1/2,0,1/2,1", "--alpha", "3")
    assert code == 0
    sizes = [entry["size"] for entry in doc["sweep"]]
    assert sizes == ["infinite", 3, 4, 6, "infinite"]


def test_simple_baric_example(capsys):
    code, doc = run_json(
        capsys, "simple", "--gram", '[["1","0"],["0","1"]]', "--alpha", "-1"
    )
    assert code == 0
    assert doc["simple"] is False and doc["reason"] == "BaricMinusOne"


def test_idempotents_example(capsys):
    code, doc = run_json(capsys, "idempotents", "--p", "5", "--gram", "[[1]]", "--alpha", "2")
    assert code == 0
    enum = doc["enumeration"]
    assert enum["nonzero_count"] == 7 and enum["expected_count"] == 7
    assert "other" not in enum["counts"]


def test_idempotents_jordan_special_has_no_expected_count(capsys):
    # alpha = 3 = 1/2 mod 5: a Jordan algebra, outside the 3 + 2N classification
    code, doc = run_json(
        capsys, "idempotents", "--p", "5", "--alpha", "3", "--gram", '[["1","0"],["0","1"]]'
    )
    assert code == 0
    enum = doc["enumeration"]
    assert enum["expected_count"] is None
    assert enum["nonzero_count"] == 31 and enum["counts"]["other"] == 20


def test_idempotents_infeasible_over_rationals(capsys):
    code, doc = run_json(
        capsys, "idempotents", "--alpha", "3", "--gram", '[["1","0"],["0","1"]]'
    )
    assert code == 0
    assert doc["enumeration"]["feasible"] is False
    assert doc["family_members"]  # witnesses produce explicit family elements


def test_build_report(capsys):
    code, doc = run_json(capsys, "build", "--alpha", "3", "--gram", '[["1","0"],["0","1"]]')
    assert code == 0
    assert doc["basis"] == ["e1", "e2", "z1", "z2"]
    assert doc["kind"] == "split_spin"
    assert doc["alpha"] == "3/1"
    assert [0, 0, 2, "-3/1"] in doc["structure_constants"]


def test_axis_check(capsys):
    code, doc = run_json(capsys, "axis-check", "--alpha", "3", "--gram", '[["1","0"],["0","1"]]')
    assert code == 0
    assert all(axis["ok"] for axis in doc["axes"])
    names = {axis["axis_name"] for axis in doc["axes"]}
    assert {"z1", "z2", "family_a", "family_b"} <= names


def test_axis_check_cover(capsys):
    code, doc = run_json(
        capsys, "axis-check", "--variant", "cover", "--gram", '[["1","0"],["0","1"]]'
    )
    assert code == 0
    names = [axis["axis_name"] for axis in doc["axes"]]
    assert names[0] == "z1" and "family_exc" in names
    assert all(axis["ok"] for axis in doc["axes"])


def test_frobenius_report(capsys):
    code, doc = run_json(capsys, "frobenius", "--alpha", "3", "--gram", '[["1","0"],["0","1"]]')
    assert code == 0
    assert doc["gram"][2][2] == "4/1" and doc["gram"][3][3] == "-1/1"
    assert doc["rank"] == 4 and doc["radical"] == []


def test_radical_baric(capsys):
    code, doc = run_json(capsys, "radical", "--alpha", "2", "--gram", '[["1","0"],["0","1"]]')
    assert code == 0
    assert doc["baric"] == "alpha=2" and len(doc["radical"]) == 3


def test_yabe_report(capsys):
    code, doc = run_json(capsys, "yabe", "--alpha", "3", "--mu", "2")
    assert code == 0
    assert doc["delta"] == "-5/1"
    assert doc["spans_algebra"] is True
    assert doc["basis"] == ["a0", "a1", "a_minus1", "q"]


def test_yabe_mu_one_fails_with_code(capsys):
    code, doc = run_json(capsys, "yabe", "--alpha", "3", "--mu", "1")
    assert code == 1
    assert doc["error"]["code"] == "MuOne"


def test_cover_report(capsys):
    code, doc = run_json(capsys, "cover", "--gram", '[["1","0"],["0","1"]]')
    assert code == 0
    assert doc["all_ok"] is True


def test_config_error_unknown_key(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"field": {"kind": "rational"}, "extra": 1}))
    code, out = run_cli(capsys, "build", "-c", str(config))
    assert code == 2


def test_config_error_bad_prime(capsys):
    code, _ = run_cli(capsys, "build", "--p", "9", "--gram", "[[1]]", "--alpha", "2")
    assert code == 2


def test_config_error_prime_beyond_deterministic_bound(capsys):
    # the least strong pseudoprime to the Miller-Rabin bases 2..37
    code = main(["build", "--p", "318665857834031151167461", "--gram", "[[1]]", "--alpha", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:") and captured.out == ""


def test_config_error_removed_subalgebra_cap(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"budgets": {"subalgebra_cap": 16}}))
    code = main(["build", "-c", str(config), "--gram", "[[1]]", "--alpha", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "subalgebra_cap" in captured.err and captured.out == ""


def test_config_file_with_overrides(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "field": {"kind": "prime", "p": 5},
                "alpha": "2",
                "gram": [["1"]],
                "output": "json",
            }
        )
    )
    code, doc = run_json(capsys, "idempotents", "-c", str(config))
    assert code == 0
    assert doc["enumeration"]["nonzero_count"] == 7
    # flag override replaces the gram with a two-generated shortcut
    code, doc = run_json(capsys, "axet", "-c", str(config), "--mu", "2")
    assert code == 0
    assert doc["size"] == 3


def test_text_format(capsys):
    code, out = run_cli(
        capsys, "simple", "--gram", '[["1","0"],["0","1"]]', "--alpha", "3", "--format", "text"
    )
    assert code == 0
    assert "simple: True" in out
    assert "reason: Simple" in out


def test_reports_are_deterministic(capsys):
    _, first = run_cli(capsys, "cover", "--gram", '[["1","0"],["0","1"]]')
    _, second = run_cli(capsys, "cover", "--gram", '[["1","0"],["0","1"]]')
    assert first == second


def test_selftest_wiring(capsys, monkeypatch):
    import splitspin.acceptance as acceptance
    from splitspin.errors import VerificationFailed

    def fake_pass():
        pass

    def fake_fail():
        raise VerificationFailed("boom")

    monkeypatch.setattr(
        acceptance, "CRITERIA", ((1, "ok", fake_pass), (2, "bad", fake_fail))
    )
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "PASS criterion 1" in out and "FAIL criterion 2" in out
    monkeypatch.setattr(acceptance, "CRITERIA", ((1, "ok", fake_pass),))
    assert main(["selftest"]) == 0


@pytest.mark.parametrize("p, gram", [(3, '[["2","1"],["1","1"]]'), (2, '[["1"]]'), (3, '[["0"]]')])
def test_cover_idempotents_where_minus_one_is_jordan_special(capsys, p, gram):
    """The cover's alpha = -1 is 1/2 at p = 3 and 1 at p = 2, where the
    1 + N count does not apply: the scan is reported without an expected
    count and the command succeeds."""
    code, doc = run_json(capsys, "idempotents", "--p", str(p), "--variant", "cover", "--gram", gram)
    assert code == 0
    assert doc["enumeration"]["expected_count"] is None
    space = splitspin.QuadraticSpace(splitspin.Matrix.identity(splitspin.Field.prime(p), 1))
    assert splitspin.exceptional_cover(space).meta.jordan_special
    for field in (splitspin.Field.prime(5), splitspin.Field.rationals()):
        space = splitspin.QuadraticSpace(splitspin.Matrix.identity(field, 1))
        assert not splitspin.exceptional_cover(space).meta.jordan_special


def test_selftest_only_flag(capsys):
    assert main(["selftest", "--only", "2"]) == 0
    out = capsys.readouterr().out
    assert "criterion 2" in out and "criterion 1" not in out


def test_axet_empty_mu_list_is_config_error(capsys):
    code = main(["axet", "--mu=,"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:") and captured.out == ""


def test_workers_is_no_longer_an_option(capsys):
    # a sweep runs in one process; the removed --workers flag is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["axet", "--mu", "0,1/2", "--alpha", "3", "--workers", "2"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_closed_stdout_gives_no_traceback():
    # like `splitspin axis-check ... | head -1`: the reader is gone before the report is written
    src = os.path.dirname(os.path.dirname(splitspin.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "splitspin", "axis-check", "--alpha", "3",
         "--gram", '[["1","0","0"],["0","1","0"],["0","0","1"]]'],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert code == 0


# -- the indent-2 JSON writer against json.dumps ---------------------------------

ESCAPES = st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f abc\u00e9\u2028\ufeff\U0001f600')
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40)
    | st.text() | ESCAPES
)
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text() | ESCAPES, children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=200)
@given(JSON_DOCS)
def test_json_writer_matches_json_dumps(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {"x": [1, 2.5]},
    {"pair": (1, "a")},
    {"nested": [{"ok": True, "keys": {1: None}}]},
    [float("nan")],
])
def test_json_writer_falls_back_to_json_dumps(doc):
    with pytest.raises(TypeError):
        cli._write(doc, "\n")
    assert cli._dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "argv",
    [
        ["yabe", "--mu", "1", "--alpha", "0"],
        ["axet", "--mu", "1", "--alpha", "1", "--p", "7"],
        ["axet", "--mu", "0", "--p", "3"],
        ["axet", "--mu", "0,2", "--p", "3"],
    ],
    ids=["yabe-jordan-alpha", "axet-jordan-alpha", "axet-no-alpha-over-F3", "axet-sweep-no-alpha-over-F3"],
)
def test_parameters_outside_the_domain_are_config_errors(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error:") and captured.out == ""


def test_config_error_leaves_a_parallel_axet_sweep(capsys):
    # the sweep runs serially; the config error of its first value ends it
    code = main(["axet", "--mu", "0,2", "--p", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error: no valid alpha exists over GF(3)") and captured.out == ""


def test_a_library_value_error_is_an_error_report(capsys, monkeypatch):
    def fail(args, cfg):
        raise ValueError("quotient by the whole algebra is empty")

    monkeypatch.setitem(cli.COMMANDS, "build", fail)
    code, doc = run_json(capsys, "build", "--alpha", "3", "--gram", "[[1]]")
    assert code == 1
    assert doc == {"error": {"code": "ValueError", "message": "quotient by the whole algebra is empty"}}


# -- fuzzed flags --------------------------------------------------------------------

FUZZ_SCALARS = ["0", "1", "-1", "2", "3", "1/2", "-3/2", "5/3", "4,5", "-1,0,1/2"]
FUZZ_BROKEN_SCALARS = ["1/0", "0.5", "x", "", "1,,2"]
FUZZ_BROKEN_GRAMS = ["[]", "[[]]", "[[1]", "[[1, 2], [3, 4]]", "[[1, 2]]", "[[true]]", "[[1.5]]", '[["a"]]',
                     "null", "{}", '{"two_gen_mu": "2"}']


def _mostly(good, broken):
    """Mostly a value of `good`, sometimes one of `broken`."""
    return st.sampled_from(good * 4 + broken)


@st.composite
def _fuzzed_argv(draw, command):
    """Flags for one command with p <= 13 and dim E <= 3: mostly well-formed
    values, some broken ones, each flag present or not."""
    k = draw(st.integers(1, 3))
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = draw(st.integers(-3, 13))
    grams = [json.dumps(rows), json.dumps([[str(x) for x in row] for row in rows]), '[["1/2", "1"], ["1", "0"]]']
    flags = [
        ("--p", 9, _mostly(["3", "5", "7", "11", "13"], ["2", "1", "4", "0", "-7", "x"])),
        ("--alpha", 8, _mostly(FUZZ_SCALARS, FUZZ_BROKEN_SCALARS)),
        ("--mu", 8, _mostly(FUZZ_SCALARS, FUZZ_BROKEN_SCALARS)),
        ("--gram", 8, _mostly(grams, FUZZ_BROKEN_GRAMS)),
        ("--variant", 3, _mostly(["split_spin", "cover"], ["spin"])),
        ("--cap", 2, _mostly(["3", "1000"], ["0", "-1", "x"])),
        ("--seed", 2, _mostly(["0", "7"], ["-1", "x"])),
        ("--format", 2, _mostly(["json", "text"], ["yaml"])),
        ("--config", 1, st.just("no-such-config.json")),
    ]
    argv = [command]
    for flag, tenths, values in flags:
        if draw(st.sampled_from(range(10))) < tenths:
            argv.append(f"{flag}={draw(values)}")
    stray = draw(st.sampled_from([None] * 17 + ["--bogus", "extra", "-x"]))
    return argv if stray is None else argv + [stray]


@pytest.mark.parametrize("command", ["axis-check", "idempotents", "simple", "axet", "cover"])
def test_fuzzed_flags_exit_cleanly(command):
    """Any flag string ends in exit code 0, 1 or 2, never in an uncaught
    exception or a traceback on stdout or stderr."""
    @settings(max_examples=60)
    @given(_fuzzed_argv(command))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the flags as the process would
                code = exc.code
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue(), argv

    check()
