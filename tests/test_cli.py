import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopbracket.bracket as B
import loopbracket.cli as C
import loopbracket.dgla as DG
import loopbracket.groups as G
import loopbracket.schema as SC
import loopbracket.serialize as Z
import loopbracket.surface as S
import loopbracket.verify as V
from test_dgla import corrupt, overflowing_toy


def run_cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "loopbracket.cli", *args],
                          capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def torus_curves(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "curves.json"
    path.write_text(json.dumps(
        {"genus": 1, "curves": {"a": "a1", "b": "b1"}}))
    return str(path)


@pytest.fixture(scope="module")
def diag_rep(tmp_path_factory):
    # commuting diagonal pair, trace of hol(a1 b1) = 6 + 1/6
    rep = S.Representation(G.GroupSpec("GL_R", 2), 1,
                           [np.diag([2.0, 0.5]), np.diag([3.0, 1 / 3])])
    path = tmp_path_factory.mktemp("cli") / "rep.json"
    path.write_text(json.dumps(Z.rep_to_json(rep)))
    return str(path)


def test_bracket_torus_generators(torus_curves):
    out = run_cli("bracket", torus_curves, "a", "b")
    assert out.returncode == 0
    assert out.stdout.strip() == '[{"coef":"1","word":"a1 b1"}]'


def test_bracket_self_is_zero(torus_curves):
    out = run_cli("bracket", torus_curves, "a", "a")
    assert out.returncode == 0
    assert out.stdout.strip() == "[]"


def test_bracket_unoriented_half_terms(torus_curves):
    out = run_cli("bracket", torus_curves, "a", "b", "--unoriented")
    assert out.returncode == 0
    terms = json.loads(out.stdout)
    assert sorted(t["coef"] for t in terms) == ["-1/2", "1/2"]


def test_holonomy_trace(diag_rep):
    out = run_cli("holonomy", diag_rep, "a1 b1")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["trace"] == pytest.approx(37 / 6, abs=1e-11)
    assert "6.16666666667" in out.stdout


def test_holonomy_empty_word_is_identity(diag_rep):
    out = run_cli("holonomy", diag_rep, "")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["trace"] == 2.0
    assert np.array_equal(Z.matrix_from_json(data["holonomy"]), np.eye(2))


def test_holonomy_perturbed_fields(diag_rep, tmp_path):
    pert = tmp_path / "pert.json"
    pert.write_text(json.dumps(
        {"a1": Z.matrix_to_json(0.01 * np.array([[0.0, 1.0], [1.0, 0.0]]))}))
    out = run_cli("holonomy", diag_rep, "a1 b1", "--perturbation", str(pert))
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["series_order"] == 12
    assert data["remainder_bound"] <= 1e-9
    assert data["rk4_delta"] <= 1e-12
    assert abs(data["perturbed_trace"] - data["trace"]) > 1e-5


def test_holonomy_relator_violation_exits_4(tmp_path):
    rep = S.Representation(G.GroupSpec("GL_R", 2), 1,
                           [np.diag([2.0, 0.5]),
                            np.array([[1.0, 1.0], [0.0, 1.0]])])
    path = tmp_path / "bad_rep.json"
    path.write_text(json.dumps(Z.rep_to_json(rep)))
    out = run_cli("holonomy", str(path), "a1")
    assert out.returncode == 4
    assert "relator" in out.stderr
    assert "Traceback" not in out.stderr


def _rep_file(tmp_path, name, a1):
    path = tmp_path / name
    path.write_text(json.dumps(
        {"group": {"kind": "GL_R", "n": 2},
         "images": {"a1": a1, "b1": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}))
    return str(path)


def test_holonomy_singular_image_exits_2(tmp_path):
    path = _rep_file(tmp_path, "singular.json",
                     [[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
    out = run_cli("holonomy", path, "a1")
    assert out.returncode == 2
    assert "invertible" in out.stderr
    assert "Traceback" not in out.stderr


def test_holonomy_oversized_integer_exits_2(tmp_path):
    # float() of this integer raises OverflowError: it once ended in a traceback
    path = _rep_file(tmp_path, "oversized.json",
                     [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]])
    out = run_cli("holonomy", path, "a1")
    assert out.returncode == 2
    assert out.stdout == "" and "Traceback" not in out.stderr


@pytest.mark.parametrize("text", ["1" + "0" * 5000, "[" * 100000],
                         ids=["5000-digits", "deep-nesting"])
@pytest.mark.parametrize("argv", [["bracket", "IN", "a", "b"],
                                  ["holonomy", "IN", "a1"],
                                  ["dgla-check", "IN"]])
def test_json_that_python_cannot_decode_exits_2(text, argv, tmp_path, capsys):
    # json.load raises ValueError or RecursionError, not JSONDecodeError;
    # both once ended in a traceback
    path = tmp_path / "in.json"
    path.write_text(text)
    assert C.main([str(path) if a == "IN" else a for a in argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "invalid JSON" in out.err


def test_holonomy_non_finite_result_exits_1(tmp_path):
    # passes the relator check, but hol(a1 a1) overflows
    path = _rep_file(tmp_path, "huge.json",
                     [[[1e308, 0], [0, 0]], [[0, 0], [1e-308, 0]]])
    assert run_cli("holonomy", path, "a1").returncode == 0
    out = run_cli("holonomy", path, "a1 a1")
    assert out.returncode == 1
    assert out.stdout == ""
    assert "non-finite result" in out.stderr
    assert "Traceback" not in out.stderr
    assert "Warning" not in out.stderr


def test_schema_violations_exit_2(torus_curves, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"genus":0,"curves":{}}')
    assert run_cli("bracket", str(bad), "a", "b").returncode == 2
    assert run_cli("bracket", torus_curves, "a", "nope").returncode == 2
    assert run_cli("bracket", "/does/not/exist.json", "a", "b").returncode == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert run_cli("bracket", str(notjson), "a", "b").returncode == 2


def _torus_file(genus):
    return {"genus": genus, "curves": {"a": "a1", "b": "b1"}}


def _gl1_rep(n):
    return {"group": {"kind": "GL_R", "n": n},
            "images": {"a1": [[[2, 0]]], "b1": [[[3, 0]]]}}


def _gl2_rep(cell):
    return {"group": {"kind": "GL_R", "n": 2},
            "images": {"a1": [[[cell, 0], [0, 0]], [[0, 0], [1, 0]]],
                       "b1": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}


def _dgla_1x1(d0):
    return {"d0": d0, "d1": 1, "b00": [[[0]]], "b01": [[[0]]], "b11": [[[0]]],
            "d_eo": [[0]], "d_oe": [[0]], "w00": [[1]], "w11": [[1]]}


def _dgla_1x1_cell(w00):
    return {**_dgla_1x1(1), "w00": [[w00]]}


# (command, file maker, argv after the file, the value that fits, values that
# once passed as an integer or a number: true, a truncated fraction, a
# numeric string)
_NOT_INTEGERS = [
    ("bracket", _torus_file, ["a", "b"], 1, [True]),
    ("holonomy", _gl1_rep, ["a1"], 1, [True, 1.7, "1"]),
    ("holonomy", _gl2_rep, ["a1"], 1, [True]),
    ("dgla-check", _dgla_1x1, [], 1, [True]),
    ("dgla-check", _dgla_1x1_cell, [], 1, [True, "1"]),
]


@pytest.mark.parametrize("command, make, argv, good, bads", _NOT_INTEGERS,
                         ids=["curves-genus", "group-n", "matrix-cell", "dgla-d0",
                              "dgla-cell"])
def test_json_booleans_and_fractions_are_not_integers(command, make, argv, good, bads,
                                                       tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(make(good)))
    assert run_cli(command, str(path), *argv).returncode in (0, 1)
    for bad in bads:
        path.write_text(json.dumps(make(bad)))
        out = run_cli(command, str(path), *argv)
        assert out.returncode == 2, (bad, out.stdout)
        assert out.stdout == "" and "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [
    # each once failed trials with exit 1: a kind the suite's bracket does
    # not model read as a failed bracket, not as bad input
    ["verify", "goldman-gl", "--trials", "4", "--group", "O(2,1)"],
    ["verify", "goldman-unoriented", "--trials", "4", "--group", "GL(2,R)"],
])
def test_goldman_suite_rejects_a_kind_its_bracket_does_not_model(argv, capsys):
    assert C.main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "models" in out.err


@pytest.mark.parametrize("group", ["GL(2,R)", "GL(2,C)", "U(2)"])
def test_verify_jacobi_passes_under_any_group(group, capsys):
    # under a GL representation traces do not evaluate the unoriented
    # bracket, so its odd trials once failed with exit 1; they now run the
    # oriented one, and only form kinds alternate the two brackets
    assert C.main(["verify", "jacobi", "--trials", "30", "--group", group]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:-1]]
    kinds = {r["unoriented"] for r in records}
    assert kinds == ({False, True} if group == "U(2)" else {False})


def test_bracket_of_long_torus_word(tmp_path, capsys):
    # once exited 3 ("realization failure") at every seed
    path = tmp_path / "long.json"
    path.write_text(json.dumps(
        {"genus": 1, "curves": {"u": "a1 " * 300, "v": "b1"}}))
    assert C.main(["bracket", str(path), "u", "v"]) == 0
    want = C.dumps(SC.loopsum_to_json(B.torus_closed_form(300, 0, 0, 1)))
    assert capsys.readouterr().out == want + "\n"


def test_bracket_letter_past_the_key_limit_exits_2(tmp_path):
    # genus 245759 holds every letter in a term key; b245760 is past them
    path = tmp_path / "curves.json"
    for genus, word, code in [(245759, "b245759", 0), (300000, "b245760", 2),
                              (300000, "a300000", 2)]:
        path.write_text(json.dumps({"genus": genus,
                                    "curves": {"u": f"a1 {word}", "v": "b1"}}))
        proc = run_cli("bracket", str(path), "u", "v")
        assert proc.returncode == code, proc.stderr
        if code:
            assert proc.stdout == "" and proc.stderr.startswith("error: letter")
            assert len(proc.stderr.splitlines()) == 1
        else:
            assert json.loads(proc.stdout)


def test_unknown_suite_exits_2():
    out = run_cli("verify", "nope")
    assert out.returncode == 2
    assert all(suite in out.stderr for suite in V.SUITES), out.stderr


def test_verify_help_lists_every_suite():
    out = run_cli("verify", "--help")
    assert out.returncode == 0
    assert len(V.SUITES) == 6
    assert all(suite in out.stdout for suite in V.SUITES), out.stdout


@pytest.mark.parametrize("argv", [
    ["bracket", "CURVES", "a", "b", "--seed", "-1"],
    ["sample-rep", "--group", "GL(2,R)", "--seed", "-3"],
    ["verify", "variation", "--seed", "-1"],
    ["verify", "variation", "--trials", "-5"],
    ["verify", "variation", "--trials", "x"],
    # once ran the suite's default 8 trials
    ["verify", "dgla", "--trials", "0"],
])
def test_negative_seed_or_trials_exits_2(torus_curves, argv):
    out = run_cli(*[torus_curves if a == "CURVES" else a for a in argv])
    assert out.returncode == 2
    assert out.stdout == ""
    assert "usage:" in out.stderr and "Traceback" not in out.stderr


def _parse_exit(argv, capsys):
    """Exit code and output of an in-process run stopped by argparse."""
    with pytest.raises(SystemExit) as stop:
        C.main(argv)
    return stop.value.code, capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "dgla", "--trials", "2", "--tol", "inf"],
    ["verify", "goldman-gl", "--trials", "2", "--tol", "nan"],
    ["verify", "chen", "--trials", "1", "--tol", "-1"],
    ["dgla-check", "--toy", "GL(2,R)", "--tol", "nan"],
    ["dgla-check", "--toy", "GL(2,R)", "--tol", "0"],
    # once spent seconds on Gauss-Newton tries and exited 3
    ["sample-rep", "--group", "GL(2,R)", "--genus", "2", "--tol", "-1"],
    ["sample-rep", "--group", "GL(2,R)", "--tol", "x"],
])
def test_tol_must_be_finite_and_positive(argv, capsys):
    code, out = _parse_exit(argv, capsys)
    assert code == 2
    assert out.out == ""
    assert "usage:" in out.err and "--tol" in out.err


@pytest.mark.parametrize("argv", [
    ["verify", "goldman-gl", "--trials", "1", "--genus", "0"],
    ["verify", "jacobi", "--trials", "1", "--genus", "-2"],
    ["sample-rep", "--group", "GL(2,R)", "--genus", "0"],
    ["dgla-check", "--toy", "GL(2,R)", "--genus", "-1"],
    # these suites take no genus: it is rejected, not ignored
    ["verify", "variation", "--trials", "1", "--genus", "2"],
    ["verify", "chen", "--trials", "1", "--genus", "1"],
])
def test_genus_below_1_or_unused_exits_2(argv, capsys):
    code, out = _parse_exit(argv, capsys)
    assert code == 2
    assert out.out == ""
    assert "usage:" in out.err and "genus" in out.err


@pytest.mark.parametrize("argv", [
    ["bracket", "CURVES", "a", "b", "--genus", "5"],
    ["bracket", "CURVES", "a", "b", "--genus", "1"],
    ["holonomy", "REP", "a1", "--genus", "7"],
    ["dgla-check", "DGLA", "--genus", "2"],
])
def test_genus_from_input_file_rejects_genus_flag(argv, torus_curves, diag_rep,
                                                  tmp_path, capsys):
    dgla = tmp_path / "dgla.json"
    dgla.write_text(json.dumps(Z.dgla_to_json(DG.minimal_differential_instance())))
    files = {"CURVES": torus_curves, "REP": diag_rep, "DGLA": str(dgla)}
    code, out = _parse_exit([files.get(a, a) for a in argv], capsys)
    assert code == 2
    assert out.out == ""
    assert "usage:" in out.err and "--genus" in out.err


@pytest.mark.parametrize("argv", [
    # each was once accepted, ignored, and exited 0
    ["bracket", "CURVES", "a", "b", "--tol", "1e-3"],
    ["bracket", "CURVES", "a", "b", "--group", "GL(2,R)"],
    ["holonomy", "REP", "a1", "--seed", "4"],
    ["holonomy", "REP", "a1", "--group", "U(2)"],
    ["dgla-check", "--toy", "GL(2,R)", "--seed", "4"],
    ["dgla-check", "--toy", "GL(2,R)", "--group", "U(2)"],
    ["verify", "chen", "--trials", "1", "--group", "GL(2,R)"],
])
def test_flag_the_command_does_not_read_exits_2(argv, torus_curves, diag_rep,
                                                capsys):
    files = {"CURVES": torus_curves, "REP": diag_rep}
    code, out = _parse_exit([files.get(a, a) for a in argv], capsys)
    assert code == 2
    assert out.out == ""
    assert "usage:" in out.err


def test_verify_suite_takes_the_options_its_trials_read(capsys):
    for argv in (["verify", "chen", "--trials", "1", "--group", "U(2)"],
                 ["verify", "variation", "--trials", "1", "--genus", "1"]):
        code, out = _parse_exit(argv, capsys)
        assert code == 2 and out.out == "" and "takes no" in out.err
    for argv in (["verify", "dgla", "--trials", "1", "--genus", "1",
                  "--group", "GL(2,R)"],
                 ["verify", "variation", "--trials", "7", "--group", "O(2,1)"]):
        assert C.main(argv) == 0
        records = [json.loads(line) for line in
                   capsys.readouterr().out.splitlines()]
        assert all(r["group"] == argv[-1] for r in records[:-1])
        assert records[-1]["pass"] is True


def test_closed_stdout_pipe_exits_1_without_traceback():
    # over 64 KB of stdout: the write fails once the reader has gone
    proc = subprocess.Popen(
        [sys.executable, "-m", "loopbracket.cli", "verify", "variation",
         "--trials", "700"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert json.loads(proc.stdout.readline())["trial"] == 0
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_bad_tol_exits_2_without_traceback():
    out = run_cli("sample-rep", "--group", "GL(2,R)", "--genus", "2",
                  "--tol", "-1")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "usage:" in out.stderr and "Traceback" not in out.stderr


def test_verify_goldman_gl_genus_1():
    out = run_cli("verify", "goldman-gl", "--genus", "1",
                  "--trials", "8", "--seed", "1")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert len(lines) == 9
    summary = json.loads(lines[-1])
    assert summary["pass"] is True
    assert summary["max_residual"] <= 1e-8
    assert all(json.loads(l)["pass"] for l in lines[:-1])


def test_verify_chen_nilpotent_trial_is_exact():
    out = run_cli("verify", "chen", "--trials", "1", "--seed", "9")
    assert out.returncode == 0
    first = json.loads(out.stdout.strip().split("\n")[0])
    assert first["subtest"] == "nilpotent"
    assert first["residual"] == 0.0


def test_verify_determinism():
    args = ("verify", "variation", "--seed", "3", "--trials", "21")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_sample_rep_round_trips(tmp_path):
    out_path = tmp_path / "rep.json"
    args = ("sample-rep", "--group", "Sp(2,R)", "--genus", "2",
            "--seed", "5", "--out", str(out_path))
    out = run_cli(*args)
    assert out.returncode == 0
    rep = Z.rep_from_json(json.loads(out_path.read_text()))
    assert rep.genus == 2
    assert S.relator_residual(rep) <= 1e-9
    # stdout is canonicalized but must stay loadable and near the artifact
    rep12 = Z.rep_from_json(json.loads(out.stdout))
    assert S.relator_residual(rep12) <= 1e-9
    assert run_cli(*args).stdout == out.stdout


def test_sample_rep_survives_singular_newton_iterate():
    # this seed once ended in a LinAlgError traceback with exit 1
    out = run_cli("sample-rep", "--group", "O(2,1)", "--genus", "5",
                  "--seed", "3")
    assert out.returncode == 0
    assert "Traceback" not in out.stderr
    rep = Z.rep_from_json(json.loads(out.stdout))
    assert S.relator_residual(rep) <= 1e-9


def test_sample_rep_needs_group():
    assert run_cli("sample-rep", "--seed", "1").returncode == 2


def test_dgla_check_toy_passes():
    out = run_cli("dgla-check", "--toy", "U(2)", "--genus", "2")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["pass"] is True
    assert data["axioms"]["sigma_min_even"] >= 1.0 - 1e-12


def test_dgla_check_file_and_failure(tmp_path):
    inst = DG.minimal_differential_instance()
    good = tmp_path / "good.json"
    good.write_text(json.dumps(Z.dgla_to_json(inst)))
    assert run_cli("dgla-check", str(good)).returncode == 0

    broken = corrupt(inst, "d_oe", (0, 0), 0.5)  # breaks d*d = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(Z.dgla_to_json(broken)))
    out = run_cli("dgla-check", str(bad))
    assert out.returncode == 1
    assert json.loads(out.stdout)["pass"] is False

    assert run_cli("dgla-check").returncode == 2


@pytest.mark.parametrize("entries", [
    {"w11": [[0, 1e308], [-1e308, 1e308]]},          # w11 + w11^T overflows
    {"d_eo": [[1e300] * 2] * 2, "d_oe": [[1e300] * 2] * 2},  # so does d d
], ids=["pairing", "differential"])
def test_dgla_check_overflow_is_a_non_finite_result(tmp_path, capsys, entries):
    # finite entries whose sums or products overflow end in exit 1 with a
    # one-line message, not a numpy RuntimeWarning
    path = tmp_path / "dgla.json"
    path.write_text(json.dumps(
        {**Z.dgla_to_json(DG.minimal_differential_instance()), **entries}))
    out = run_cli("dgla-check", str(path))
    assert out.returncode == 1
    assert out.stdout == ""
    assert "non-finite result" in out.stderr
    assert "RuntimeWarning" not in out.stderr
    # in process, under the suite's error::RuntimeWarning filter
    assert C.main(["dgla-check", str(path)]) == 1
    assert "non-finite result" in capsys.readouterr().err


def test_dgla_check_nan_residual_is_a_non_finite_result(tmp_path):
    # a Jacobi residual that overflows to NaN once read as 0 and passed
    path = tmp_path / "dgla.json"
    path.write_text(json.dumps(Z.dgla_to_json(overflowing_toy())))
    out = run_cli("dgla-check", str(path))
    assert out.returncode == 1
    assert out.stdout == ""
    assert "non-finite result: jacobi is nan" in out.stderr


def test_dgla_check_bad_file_exits_2(torus_curves):
    out = run_cli("dgla-check", torus_curves)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "d0" in out.stderr
    assert "Traceback" not in out.stderr


def test_dgla_check_file_and_toy_together_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    broken = corrupt(DG.minimal_differential_instance(), "d_oe", (0, 0), 0.5)
    bad.write_text(json.dumps(Z.dgla_to_json(broken)))
    out = run_cli("dgla-check", str(bad), "--toy", "GL(2,R)")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "not both" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_dumps_refuses_non_finite_output(bad):
    assert C.dumps({"a": [1.0, 2], "b": True}) == '{"a":[1.0,2],"b":true}'
    with pytest.raises(C.NonFiniteResult, match="residual"):
        C.dumps({"trial": 0, "rows": [{"residual": bad}]})
    with pytest.raises(C.NonFiniteResult):
        C.dumps([0.5, bad])


@pytest.mark.parametrize("argv", [
    ["bracket", "CURVES", "a", "b"],
    ["verify", "chen", "--trials", "1"],
    ["dgla-check", "--toy", "GL(2,R)"],
])
def test_unwritable_out_exits_2_before_stdout(argv, torus_curves, tmp_path,
                                              capsys):
    # a directory as --out once ended in an IsADirectoryError traceback
    argv = [torus_curves if a == "CURVES" else a for a in argv]
    assert C.main(argv + ["--out", str(tmp_path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "cannot write" in out.err


def test_bracket_seed_changes_nothing(tmp_path, capsys):
    path = tmp_path / "curves.json"
    path.write_text(json.dumps(
        {"genus": 2, "curves": {"u": "a1 b1 A2 b2 a1", "v": "b2 a2 B1"}}))
    for extra in ([], ["--unoriented"]):
        outs = []
        for seed in ("0", "7"):
            assert C.main(["bracket", str(path), "u", "v", "--seed", seed, *extra]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0] != "[]\n"


def test_bracket_out_file_matches_stdout(torus_curves, tmp_path):
    out_path = tmp_path / "sum.json"
    out = run_cli("bracket", torus_curves, "a", "b", "--out", str(out_path))
    assert out.returncode == 0
    assert out_path.read_text().strip() == out.stdout.strip()


def test_stdin_input(diag_rep):
    payload = open(diag_rep).read()
    out = run_cli("holonomy", "-", "a1", input=payload)
    assert out.returncode == 0
    assert json.loads(out.stdout)["trace"] == 2.5


_LOADS = """
import contextlib, io, json, sys
from loopbracket import cli
runs, stdin = json.loads(sys.argv[1]), sys.argv[2]
for argv, code in runs:
    sys.stdin, sink = open(stdin), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        assert cli.main(argv) == code, (argv, sink.getvalue())
print(json.dumps({
    "loopbracket": sorted(m for m in sys.modules if m.startswith("loopbracket.")),
    "numpy": "numpy" in sys.modules, "fractions": "fractions" in sys.modules,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "polynomial": sorted(m for m in sys.modules if m.startswith("numpy.polynomial"))}))
"""

_CLI = ("cli", "schema", "words")
_NUMERIC = _CLI + ("groups", "serialize", "surface")
_VERIFY = _NUMERIC + ("verify",)
_BRACKET = ("bracket", "polygon")

# a process with no bytecode cache compiles each module it imports, so
# each subcommand imports only the modules it runs.  Rows: the runs
# (argv, exit code) made in one fresh interpreter, and the loopbracket
# modules loaded after them
_LOADS_TABLE = {
    "import": ([], _CLI),
    # the bracket is exact combinatorics: none of its paths, the error
    # exits included, may import numpy or the verify suites
    "bracket": ([(["bracket", "{curves}", "a", "b"], 0),
                 (["bracket", "{curves}", "a", "b", "--unoriented"], 0),
                 (["bracket", "{curves}", "a", "b", "--out", "{out}"], 0),
                 (["bracket", "-", "a", "b"], 0),
                 (["bracket", "{bad}", "a", "b"], 2),
                 (["bracket", "{curves}", "a", "nope"], 2)], _CLI + _BRACKET),
    "sample-rep": ([(["sample-rep", "--group", "O(2,1)", "--genus", "2"], 0)], _NUMERIC),
    "holonomy": ([(["holonomy", "{rep}", "a1 b1"], 0)], _NUMERIC),
    "holonomy --perturbation": (
        [(["holonomy", "{rep}", "a1 b1", "--perturbation", "{pert}"], 0)],
        _NUMERIC + ("transport",)),
    "dgla-check": ([(["dgla-check", "--toy", "GL(2,R)"], 0)], _NUMERIC + ("dgla",)),
    "verify variation": ([(["verify", "variation", "--trials", "1"], 0)], _VERIFY),
    **{f"verify {suite}": ([(["verify", suite, "--trials", "1"], 0)], _VERIFY + _BRACKET)
       for suite in ("goldman-gl", "goldman-unoriented", "jacobi")},
    "verify chen": ([(["verify", "chen", "--trials", "1"], 0)], _VERIFY + ("transport",)),
    "verify dgla": ([(["verify", "dgla", "--trials", "1"], 0)], _VERIFY + ("dgla",)),
}


@pytest.fixture(scope="module")
def numpy_polynomial_base():
    # numpy < 2 loads numpy.polynomial in `import numpy` itself
    out = subprocess.run([sys.executable, "-c", "import json, sys, numpy; print(json.dumps("
                          "[m for m in sys.modules if m.startswith('numpy.polynomial')]))"],
                         capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout))


@pytest.mark.parametrize("row", list(_LOADS_TABLE))
def test_each_run_loads_only_its_modules(row, torus_curves, diag_rep, tmp_path,
                                         numpy_polynomial_base):
    runs, modules = _LOADS_TABLE[row]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"genus": 1, "curves": {"a": "a1", "b": "b1 z9"}}))
    pert = tmp_path / "pert.json"
    pert.write_text(json.dumps({"a1": Z.matrix_to_json(0.01 * np.eye(2))}))
    files = {"curves": torus_curves, "rep": diag_rep, "bad": str(bad),
             "pert": str(pert), "out": str(tmp_path / "out.json")}
    runs = [([arg.format(**files) for arg in argv], code) for argv, code in runs]
    out = subprocess.run([sys.executable, "-c", _LOADS, json.dumps(runs), torus_curves],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["loopbracket"] == sorted(f"loopbracket.{m}" for m in modules)
    # `import loopbracket.cli` and the bracket path need the standard
    # library alone, and only the bracket's coefficients need Fraction
    assert got["numpy"] == ("groups" in modules)
    if row == "import":
        assert not got["fractions"]
    # scipy is a test dependency only; the CLI must never import it.  Nor
    # may a run load numpy.polynomial beyond what `import numpy` loads,
    # except for the Chebyshev grids of picard_transport, which only the
    # chen suite builds: holonomy --perturbation builds none
    assert got["scipy"] == []
    if row != "verify chen":
        assert set(got["polynomial"]) <= numpy_polynomial_base
    if row == "bracket":
        assert Path(files["out"]).read_text() == '[{"coef":"1","word":"a1 b1"}]\n'


# numpy's private modules: numpy._core, np.linalg._umath_linalg and the
# like, or a leading-underscore name imported from a numpy module
_PRIVATE_NUMPY = re.compile(r"\b(?:np|numpy)(?:\.\w+)*\._\w|\b_umath_linalg\b"
                            r"|\b_multiarray_umath\b|\bfrom\s+numpy[\w.]*\s+import\s+\(?\s*_")


def test_src_names_no_private_numpy_module():
    # speed work keeps to numpy's public API, whose behaviour is documented
    for bad in ("np.linalg._umath_linalg.inv(a)", "from numpy._core import umath",
                "numpy.linalg._linalg", "from numpy.linalg import _umath_linalg"):
        assert _PRIVATE_NUMPY.search(bad), bad
    src = Path(C.__file__).resolve().parent
    files = sorted(src.glob("*.py"))
    assert len(files) > 10
    for path in files:
        for n, line in enumerate(path.read_text().splitlines(), 1):
            assert not _PRIVATE_NUMPY.search(line), f"{path.name}:{n}: {line.strip()}"


# a genus-3 pair of 96 letters each
_G3_96 = {"genus": 3, "curves": {
    "x": ("A1 A1 a3 a1 A2 A3 A1 B3 B3 B2 a1 a3 A1 A3 B1 A1 "
          "A1 B1 B2 a2 B3 b2 b1 a2 b1 b1 A1 A2 b3 A1 a2 a2 "
          "A1 B3 B2 B3 A3 b1 a2 A1 A3 B2 b3 A3 a2 B1 b2 a3 "
          "B1 B1 a3 A2 a1 a1 b2 B3 B1 a2 A1 a3 b2 a3 a1 a1 "
          "A3 b3 b2 b2 A2 b3 b1 A1 A2 B3 b2 B1 B2 A2 b2 B1 "
          "a1 B3 b1 B2 B2 A3 B3 b1 a3 B3 B2 b3 a3 B3 A1 B2"),
    "y": ("b3 a3 a2 B1 b3 A2 B2 B2 B3 A3 A2 A1 B1 a3 a2 b3 "
          "A1 B1 A3 A2 b2 b2 b1 B2 A1 a3 B2 b3 A3 a2 b1 A1 "
          "B2 B3 A2 B3 a1 a1 a3 B1 a2 b1 a2 B3 a3 B3 a3 a3 "
          "B2 A2 a1 a2 B1 B2 B1 B3 A1 A2 A2 B1 A1 b1 B2 A3 "
          "a2 B1 A1 a2 b1 A3 B2 b1 a1 A3 B2 b1 b3 A2 B2 A3 "
          "A1 a3 b1 a3 a3 a1 B2 A2 b2 b2 b1 a2 b2 a2 a2 A3")}}

# sha256 of bracket stdout.  The first three were taken when the bracket
# path still ran on numpy, the last two when every term was still scanned
# as an int tuple: the current path prints the same bytes.
_PINNED = [
    ({"genus": 1, "curves": {"a": "a1", "b": "b1"}}, ["a", "b"],
     "456f63170a2de943d94638aae82c99707449780063fe8c126074b60815a98364"),
    ({"genus": 2, "curves": {"x": "b2 A1 A2 a1 b1 b1 b2 a1 B1 a1 b1 A2",
                             "y": "A2 b1 b1 A2 a1 b1 a1 A2 a1 B1 a1 a2"}},
     ["x", "y", "--unoriented"],
     "404c8ad508187ca78d680d40275d185bc991e1871bc6cd909fb1e97ac82989e3"),
    ({"genus": 1, "curves": {"p": " ".join(["a1"] * 300), "q": "b1"}}, ["p", "q"],
     "f28c56ae91736e641beedb2129412e7dca72f903015d8729e95c24445fa99a5f"),
    # 96 letters each: most terms come from the rank tables
    (_G3_96, ["x", "y"],
     "d4594beff1180456d6ca4ce4785a6298ead30a0e83e5385563c5e7cdf8e158c6"),
    (_G3_96, ["x", "y", "--unoriented"],
     "555b4ecdd0eaf1a726bf451206d2e3975123a99d5f0cf25da17b915794342772"),
]


@pytest.mark.parametrize("curves, argv, digest", _PINNED)
def test_bracket_stdout_is_pinned(curves, argv, digest, tmp_path):
    path = tmp_path / "curves.json"
    path.write_text(json.dumps(curves))
    out = run_cli("bracket", str(path), *argv)
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


# `sample-rep --group "Sp(2,R)" --genus 2 --seed 5`, and README's pert.json
_SP2_REP = {"group": {"kind": "Sp_R", "n": 2, "p": 0, "q": 0}, "images": {
    "a1": [[[0.652738611824491, 0.0], [-0.14530568111605655, 0.0]],
           [[0.4691755150082483, 0.0], [1.4275639825016209, 0.0]]],
    "a2": [[[0.7753756724463803, 0.0], [-0.0782631894566492, 0.0]],
           [[0.4539403325451385, 0.0], [1.2438785688349048, 0.0]]],
    "b1": [[[1.379452343070292, 0.0], [0.06431655887835815, 0.0]],
           [[-0.2464905518395854, 0.0], [0.7134328205345633, 0.0]]],
    "b2": [[[1.5584596829016706, 0.0], [0.32714486826062616, 0.0]],
           [[-1.2569250086512127, 0.0], [0.3778111426886765, 0.0]]]}}


def _pert_a1(entries):
    return {"a1": [[[entries[0], 0], [entries[1], 0]],
                   [[entries[2], 0], [entries[3], 0]]]}


# sha256 of holonomy --perturbation stdout, taken when rk4_delta became the
# deviation from the product of the arcs' exact exponentials
@pytest.mark.parametrize("word, digest", [
    ("a1 b1 A2", "2e2eca322320cb09aa3c744d330f534a49980ee19738b7c1335a634edd8ad824"),
    ("b2 a1 a1 B1 A2 b1 a2 a1",
     "2a31ce2eb511190181780739e4a5fc7c6d416dd8baba62d896b33e75bd5b4b70"),
])
def test_holonomy_perturbation_stdout_is_pinned(word, digest, tmp_path):
    rep, pert = tmp_path / "rep.json", tmp_path / "pert.json"
    rep.write_text(json.dumps(_SP2_REP))
    pert.write_text(json.dumps(_pert_a1([0, 0.01, 0.01, 0])))
    out = run_cli("holonomy", str(rep), word, "--perturbation", str(pert))
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


# sha256 of `sample-rep --genus 2 --seed 1` stdout.  The first seven were
# taken before sp(p, q) had its closed-form basis, which left them
# unchanged; Sp(1,1) was taken with that basis.
@pytest.mark.parametrize("group, digest", [
    ("GL(2,R)", "23697e37ee481f633b12c837ea3e55211e818bfb8474048fb5f39f8d317aec8f"),
    ("GL(2,C)", "a50c004c9bc99acdede78f3593c36c1bd1d4258e236bacee84263f4693b83624"),
    ("O(2,1)", "addedc3b3698921439ac1f7f9a0167f62e8da2150a0640ff88acc8ff16d678e7"),
    ("O(2,C)", "cef76f6ab5435e21f64a1beeffd6778f9997eabb2472cd9bdbb7efb731517778"),
    ("U(1,1)", "08b3aabde93767c15e0a2603405f3abbab24de2f7f9934d69dd8d16e66e54591"),
    ("Sp(2,R)", "8814169a4960fa3e6f1ffd375722870ae20c91780b3938d9b8714cdd90ea493a"),
    ("GL(3,C)", "cf99c6e934d0ff40d838493d82f72f01370adc1b8618231a7bb970c2911a8323"),
    ("Sp(1,1)", "1d51e7e35e775089a640dbc1f83819f1d32baf8b50db6f408a9f042890097d5c"),
])
def test_sample_rep_stdout_is_pinned(group, digest):
    out = run_cli("sample-rep", "--group", group, "--genus", "2", "--seed", "1")
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


# sha256 of `sample-rep --genus 3 --seed 1` stdout for the eight groups of
# the goldman-long benchmark, taken before the sampler drew each try's
# images at once.  It prints 12 digits; the bitwise guard on the samples
# is test_surface.py::test_sampler_keeps_the_reference_bits.
@pytest.mark.parametrize("group, digest", [
    ("GL(2,R)", "74d1f2b0445cba7f3b26ccec4b1ab447abe7de21a64cc1b4e33c67259096b53e"),
    ("GL(2,C)", "b83026f77224f46536ab9b3b5afeea5bd92cd780e1245a598d5b32626a167c80"),
    ("GL(3,C)", "c95c4868db8ad15f39a5072a2b1626b5f4c3ae1eb8e3281dd26c66121ca098f0"),
    ("O(2,1)", "dfbfcd8915c1c47614fd50c24244637fc743a70ebe9ce8eb28140304d5c583ab"),
    ("O(2,C)", "c42f51e43d97b526239adb44934ce87c92e946b8d00127b9e277dc19fa3e3653"),
    ("U(1,1)", "d3d599fff69ec450e25478fd1cbbb4aca2ea8ae8753db09e8900a09a577b38dd"),
    ("Sp(2,R)", "23dbfc3ac69d9256f4a71209b916d1c87080574bccc9d09c75e14a604c758d35"),
    ("Sp(1,1)", "3f188dae60520b63ec4230e7fe103b51a7ea4a56204b0563f4fd280e2ddb745e"),
])
def test_sample_rep_genus3_stdout_is_pinned(group, digest):
    out = run_cli("sample-rep", "--group", group, "--genus", "3", "--seed", "1")
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == digest


def test_gl3c_genus3_toy_battery_runs_within_3_s():
    # 36 even and 108 odd dimensions: the Jacobi battery contracts each
    # output slice through BLAS (1.2 s on 2 cores, 6.3 s with plain einsum)
    start = time.perf_counter()
    out = run_cli("dgla-check", "--toy", "GL(3,C)", "--genus", "3")
    elapsed = time.perf_counter() - start
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["pass"]
    assert elapsed <= 3, elapsed


@pytest.mark.parametrize("argv", [
    ["sample-rep", "--group", "GL(100000,R)"],
    ["sample-rep", "--group", "GL(3000,C)"],
    ["sample-rep", "--group", "U(5000)"],
    ["dgla-check", "--toy", "GL(40,C)"],
    ["dgla-check", "--toy", "GL(2,R)", "--genus", "2000"],
    ["verify", "dgla", "--genus", "3000", "--trials", "1"],
])
def test_inputs_too_large_to_hold_exit_2(argv, capsys):
    # rejected from their sizes before anything is allocated, not by a
    # MemoryError that an overcommitting kernel may never raise
    start = time.perf_counter()
    assert C.main(argv) == 2
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    assert out.out == ""
    assert re.fullmatch(r"error: [^\n]*too large[^\n]*\n", out.err)


@pytest.mark.parametrize("entries, message", [
    ([0, 1e300, 1e300, 0], "non-finite result: perturbed_holonomy is nan"),
    ([800, 0, 0, -800], "non-finite result: remainder_bound is inf"),
    ([-800, 0, 0, 800], "non-finite result: remainder_bound is inf"),
])
def test_holonomy_perturbation_overflow_exits_1(entries, message, tmp_path, capsys):
    # in process, where a RuntimeWarning is an error
    rep, pert = tmp_path / "rep.json", tmp_path / "pert.json"
    rep.write_text(json.dumps(_SP2_REP))
    pert.write_text(json.dumps(_pert_a1(entries)))
    assert C.main(["holonomy", str(rep), "a1 b1 A2", "--perturbation", str(pert)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(message) and "Traceback" not in out.err


# The flags each subcommand reads, written out here rather than taken
# from the parser; a verify suite or dgla-check FILE reads fewer.
_READS = {"bracket": {"--seed", "--out", "--unoriented"},
          "holonomy": {"--tol", "--out", "--perturbation"},
          "verify": {"--seed", "--tol", "--genus", "--group", "--trials",
                     "--out"},
          "sample-rep": {"--seed", "--tol", "--genus", "--group", "--out"},
          "dgla-check": {"--tol", "--genus", "--toy", "--out"}}
_UNREAD = {"chen": {"--genus", "--group"}, "variation": {"--genus"},
           "DGLA": {"--genus", "--toy"}}
# (values inside, values outside) each flag's range; None is a bare switch
_VALUES = {"--seed": (["0", "3"], ["-1", "x"]),
           "--tol": (["1e-12", "1e-6", "0.5"], ["0", "-1", "nan", "inf", "x"]),
           "--genus": (["1"], ["0", "-2", "x"]),
           "--group": (["GL(2,R)", "U(2)", "O(2,1)"], ["O(1)", "GL(0,R)", "x"]),
           "--trials": (["1"], ["0", "-1", "x"]),
           "--toy": (["GL(2,R)", "Sp(1,1)"], ["O(1,C)", "x"]),
           "--out": (["OUT"], ["DIR"]),
           "--perturbation": (["PERT"], ["MISSING", "PGEN"]),
           "--unoriented": ([None], [])}


# flags whose argparse type rejects a value outside the range, with a
# usage line, before the command reads any file
_TYPED = {"--seed", "--tol", "--genus", "--trials"}


def _value(flag):
    """Inside or outside the range with even odds."""
    return st.one_of(*(st.sampled_from(v) for v in _VALUES[flag] if v))


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory, torus_curves, diag_rep):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "pert.json").write_text(json.dumps(
        {"a1": Z.matrix_to_json(0.01 * np.array([[0.0, 1.0], [1.0, 0.0]]))}))
    (root / "dgla.json").write_text(json.dumps(
        Z.dgla_to_json(DG.minimal_differential_instance())))
    return {"CURVES": torus_curves, "REP": diag_rep, "OUT": str(root / "out"),
            "DIR": str(root), "PERT": str(root / "pert.json"),
            "DGLA": str(root / "dgla.json"), "GEN": str(root / "gen.json"),
            "PGEN": str(root / "pgen.json"),
            "MISSING": str(root / "missing.json")}


# a letter of genus 300000 past the +-491519 that bracket term keys hold
_PAST_KEY_LIMIT = "a300000"


@st.composite
def _curve_files(draw):
    """A curve file of two words of at most 24 letters at genus 1-3; one
    file in two carries an out-of-range letter, a malformed token, or a
    letter past the term key limit in a file of genus 300000."""
    genus = draw(st.integers(1, 3))
    letters = st.sampled_from([f"{c}{k}" for c in "abAB"
                               for k in range(1, genus + 1)])
    words = [draw(st.lists(letters, max_size=24)) for _ in range(2)]
    if draw(st.booleans()):
        bad = draw(st.sampled_from([f"a{genus + 1}", f"B{genus + 2}", "a0",
                                    "c1", "a", "1", "ab1", "a-1", "b1.5",
                                    _PAST_KEY_LIMIT]))
        word = draw(st.sampled_from(words))
        word.insert(draw(st.integers(0, len(word))), bad)
        if bad == _PAST_KEY_LIMIT:
            genus = 300000
    return {"genus": genus, "curves": {"u": " ".join(words[0]),
                                       "v": " ".join(words[1])}}


# Valid numeric files that _mangled breaks: representations at genus 1
# and 2, a perturbation that fits both, and a DGLA.
_NUMERIC_DOCS = {"rep": [_gl2_rep(2.0), _SP2_REP],
                 "pert": [_pert_a1([0.0, 0.01, 0.01, 0.0])],
                 "dgla": [Z.dgla_to_json(DG.minimal_differential_instance())]}
# json.dumps cannot write an integer of more digits than Python converts
# to a string, so this marker is replaced by one in the file's text
_DIGITS = "<5000 digits>"
# values that are not finite JSON numbers that fit a double, and two that
# are but overflow what is computed from them
_NOT_DOUBLES = [10**400, -10**400, _DIGITS, float("nan"), float("inf"),
                float("-inf"), True, False, "1.5", None, [], {}, 1e300, 1e-300]


def _paths(node, path=()):
    """The path of every entry below the root of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def _mangled(draw, kind):
    """The text of a valid numeric file with one entry broken: replaced by
    one of _NOT_DOUBLES, dropped (a missing key, a ragged row, a wrong
    shape), or grown (a repeated last element, a number wrapped in a
    list)."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_NUMERIC_DOCS[kind]))))
    *head, key = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for step in head:
        parent = parent[step]
    node, how = parent[key], draw(st.sampled_from(["replace", "drop", "grow"]))
    if how == "replace":
        parent[key] = draw(st.sampled_from(_NOT_DOUBLES))
    elif how == "drop":
        del parent[key]
    else:
        parent[key] = node + node[-1:] if isinstance(node, list) else [node]
    return json.dumps(doc).replace(json.dumps(_DIGITS), "1" + "0" * 5000)


@st.composite
def _invocations(draw):
    """(argv with placeholders, flags the command does not read, the text
    of each generated file GEN or PGEN it names)."""
    command = draw(st.sampled_from(sorted(_READS)))
    reads = set(_READS[command])
    files = {}
    if command == "bracket" and draw(st.booleans()):
        files["GEN"] = json.dumps(draw(_curve_files()))
        head = ["GEN", "u", "v"]
    elif command == "bracket":
        head = ["CURVES", "a", draw(st.sampled_from(["b", "nope"]))]
    elif command == "holonomy":
        head = [draw(st.sampled_from(["REP", "GEN"])),
                draw(st.sampled_from(["a1 b1", "", "a3"]))]
        if head[0] == "GEN":
            files["GEN"] = draw(_mangled("rep"))
    elif command == "verify":
        suite = draw(st.sampled_from(sorted(V.SUITES) + ["nope"]))
        # a suite's default trial count would cost seconds per example
        head = [suite, "--trials", draw(_value("--trials"))]
        reads -= _UNREAD.get(suite, set())
    elif command == "dgla-check":
        head = draw(st.sampled_from([[], ["DGLA"], ["GEN"], ["MISSING"]]))
        reads -= _UNREAD["DGLA"] if head in (["DGLA"], ["GEN"]) else set()
        if head == ["GEN"]:
            files["GEN"] = draw(_mangled("dgla"))
    else:
        head = []
    free = set(_VALUES) - set(head)
    flags = (draw(st.sets(st.sampled_from(sorted(free & reads)), max_size=3))
             | draw(st.sets(st.sampled_from(sorted(free - reads)),
                            max_size=1)))
    argv = [command, *head]
    for flag in sorted(flags):
        value = draw(_value(flag))
        argv += [flag] if value is None else [flag, value]
    if "PGEN" in argv:
        files["PGEN"] = draw(_mangled("pert"))
    return argv, flags - reads, files


@settings(max_examples=400, deadline=None)
@given(_invocations())
def test_cli_fuzz_ends_in_a_documented_exit_code(fuzz_files, invocation):
    template, unread, files = invocation
    for name, text in files.items():
        with open(fuzz_files[name], "w") as fh:
            fh.write(text)
    argv = [fuzz_files.get(a, a) for a in template]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = C.main(argv)
        except SystemExit as stop:
            code = stop.code
    assert code in range(5), (template, code)
    if template[0] == "bracket":  # every pair of valid curves realizes
        assert code in (0, 2), (template, files, code)
    rejected = any(flag in _TYPED and value in _VALUES[flag][1]
                   for flag, value in zip(template, template[1:]))
    if _PAST_KEY_LIMIT in files.get("GEN", "") and not unread:
        assert code == 2 and out.getvalue() == "", (template, files, code)
        if rejected:
            assert "usage:" in err.getvalue(), (template, files)
        else:
            assert [line.startswith("error:")
                    for line in err.getvalue().splitlines()] == [True]
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert not re.search(r"(?i)\b(nan|inf|infinity)\b", out.getvalue())
    if unread:
        assert code == 2, (template, unread)
        assert out.getvalue() == "" and "usage:" in err.getvalue()
