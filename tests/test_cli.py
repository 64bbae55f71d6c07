import json
import subprocess
import sys

import numpy as np
import pytest

import loopbracket.groups as G
import loopbracket.serialize as Z
import loopbracket.surface as S


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
    assert data["rk4_delta"] <= 1e-9
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


def test_unknown_suite_exits_2():
    assert run_cli("verify", "nope").returncode == 2


@pytest.mark.parametrize("argv", [
    ["bracket", "CURVES", "a", "b", "--seed", "-1"],
    ["sample-rep", "--group", "GL(2,R)", "--seed", "-3"],
    ["verify", "variation", "--seed", "-1"],
    ["verify", "variation", "--trials", "-5"],
    ["verify", "variation", "--trials", "x"],
])
def test_negative_seed_or_trials_exits_2(torus_curves, argv):
    out = run_cli(*[torus_curves if a == "CURVES" else a for a in argv])
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


def test_verify_determinism_and_parallel():
    args = ("verify", "variation", "--seed", "3", "--trials", "21")
    a = run_cli(*args)
    b = run_cli(*args)
    c = run_cli(*args, "--parallel", "2")
    assert a.returncode == b.returncode == c.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout == c.stdout


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
    import loopbracket.dgla as DG
    inst = DG.minimal_differential_instance()
    good = tmp_path / "good.json"
    good.write_text(json.dumps(Z.dgla_to_json(inst)))
    assert run_cli("dgla-check", str(good)).returncode == 0

    broken = DG.corrupt(inst, "d_oe", (0, 0), 0.5)  # breaks d*d = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(Z.dgla_to_json(broken)))
    out = run_cli("dgla-check", str(bad))
    assert out.returncode == 1
    assert json.loads(out.stdout)["pass"] is False

    assert run_cli("dgla-check").returncode == 2


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
