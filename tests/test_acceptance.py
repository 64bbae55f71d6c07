"""Acceptance gate: one test per shipped guarantee, at stated tolerance.

Each test prints a single C## PASS line with the measured numbers; a
failed assert is the corresponding FAIL.  Runtime limits are asserted
where the guarantee includes one.
"""

import itertools
import time

import numpy as np
import pytest

import loopbracket.bracket as B
import loopbracket.cli as C
import loopbracket.schema as SC
import loopbracket.serialize as Z
import loopbracket.surface as S
import loopbracket.verify as V
from test_surface import homotopy_variants

SUITE_SIZES = {"goldman-gl": 50, "goldman-unoriented": 50, "jacobi": 30,
               "chen": 101, "dgla": 8, "variation": 700}


@pytest.fixture(scope="module")
def chen_run():
    t0 = time.monotonic()
    records, summary = V.run_suite("chen", seed=1, trials=SUITE_SIZES["chen"])
    return records, summary, time.monotonic() - t0


def _report(cid, detail):
    print(f"{cid} PASS  {detail}")


def test_C01_goldman_gl_homomorphism():
    t0 = time.monotonic()
    records, summary = V.run_suite("goldman-gl", seed=11, trials=50)
    dt = time.monotonic() - t0
    assert summary["pass"], [r for r in records if not r["pass"]]
    assert {r["genus"] for r in records} == {1, 2}
    assert {r["group"] for r in records} == {"GL(2,R)", "GL(2,C)"}
    assert all(r["relative"] <= 1e-8 for r in records)
    assert dt <= 30
    _report("C01", f"50 trials, max rel residual "
            f"{summary['max_residual']:.3e} <= 1e-8, {dt:.1f}s")


def test_C02_unoriented_homomorphism():
    t0 = time.monotonic()
    records, summary = V.run_suite("goldman-unoriented", seed=12, trials=50)
    dt = time.monotonic() - t0
    assert summary["pass"], [r for r in records if not r["pass"]]
    assert {r["group"] for r in records} == {"O(2)", "O(1,1)", "U(2)",
                                             "Sp(2,R)"}
    assert all(r["relative"] <= 1e-8 for r in records)
    assert dt <= 60
    _report("C02", f"50 trials, max rel residual "
            f"{summary['max_residual']:.3e} <= 1e-8, {dt:.1f}s")


def _commuting_torus_reps(seed, count=10):
    reps = []
    for i in range(count):
        spec = Z.parse_group_string("GL(2,R)" if i % 2 else "GL(2,C)")
        reps.append(S.sample_representation(
            spec, 1, np.random.default_rng([seed, i])))
    return reps


def test_C03_torus_closed_form():
    t0 = time.monotonic()
    reps = _commuting_torus_reps(41)
    worst = 0.0
    combo = 0
    for p, q, r, s in itertools.product(range(-3, 4), repeat=4):
        combo += 1
        ls = B.bracket_oriented(1, B.torus_class_word(p, q),
                                B.torus_class_word(r, s), seed=combo)
        closed = B.torus_closed_form(p, q, r, s)
        for rep in reps:
            worst = max(worst, abs(ls.evaluate(rep) - closed.evaluate(rep)))
    dt = time.monotonic() - t0
    assert combo == 7 ** 4
    assert worst <= 1e-8
    assert dt <= 20
    _report("C03", f"{combo} (p,q,r,s) combos x 10 commuting reps, "
            f"worst diff {worst:.3e} <= 1e-8, {dt:.1f}s")


def test_C04_lie_axioms_at_evaluation_level():
    t0 = time.monotonic()
    records, summary = V.run_suite("jacobi", seed=13, trials=30)
    dt = time.monotonic() - t0
    assert summary["pass"], [r for r in records if not r["pass"]]
    assert {r["unoriented"] for r in records} == {False, True}
    assert all(max(r["antisymmetry"], r["jacobi"]) <= 1e-8 for r in records)
    assert dt <= 60
    _report("C04", f"30 triples both brackets, max residual "
            f"{summary['max_residual']:.3e} <= 1e-8, {dt:.1f}s")


def test_C05_representative_independence():
    pairs = [(1, [1], [2]), (1, [1, 1, 2], [1, -2]), (2, [1, 2, -3], [4, 3])]
    worst = 0.0
    checks = 0
    for pi, (genus, w1, w2) in enumerate(pairs):
        spec = Z.parse_group_string("GL(2,R)")
        rep = S.sample_representation(spec, genus,
                                      np.random.default_rng([7, pi]))
        base = B.bracket_oriented(genus, w1, w2, seed=0).evaluate(rep)
        rng = np.random.default_rng([8, pi])
        for k, v in enumerate(homotopy_variants(w1, genus, rng, 20)):
            for s in range(5):
                val = B.bracket_oriented(
                    genus, v, w2, seed=101 + 13 * k + s).evaluate(rep)
                worst = max(worst, abs(val - base))
                checks += 1
    assert checks == len(pairs) * 20 * 5
    assert worst <= 1e-8
    _report("C05", f"{checks} variant/seed evaluations over {len(pairs)} "
            f"pairs, worst drift {worst:.3e} <= 1e-8")


def test_C06_variation_functions():
    records, summary = V.run_suite("variation", seed=14, trials=700)
    assert summary["pass"], [r for r in records if not r["pass"]]
    per_kind = {}
    for r in records:
        per_kind[r["group"]] = per_kind.get(r["group"], 0) + 1
    assert set(per_kind) == set(V._VARIATION_GROUPS) and len(per_kind) == 7
    assert all(n == 100 for n in per_kind.values())
    assert all(r["fd_residual"] <= 1e-5 for r in records)
    assert all(r["projection_residual"] <= 1e-9 for r in records)
    khat = [r for r in records if "khat1_residual" in r]
    assert khat and all(r["khat1_residual"] <= 1e-4
                        and r["khat2_residual"] <= 1e-4 for r in khat)
    _report("C06", f"100 samples x 7 kinds, max FD {summary['max_residual']:.3e}"
            f" <= 1e-5, {len(khat)} enveloping checks <= 1e-4")


def test_C07_chen_engine(chen_run):
    records, summary, dt = chen_run
    assert summary["pass"], [r for r in records if not r["pass"]]
    transport = [r for r in records if r["subtest"] == "transport"]
    ratio = [r for r in records if r["subtest"] == "ratio"]
    mult = [r for r in records if r["subtest"] == "multiplicativity"]
    assert len(transport) == 20 and len(ratio) == 20 and len(mult) == 20
    assert all(r["r_hat"] <= 2 for r in transport)
    assert all(r["gap"] <= r["remainder_bound"] + 1e-12 for r in transport)
    assert all(r["term_bounds_ok"] for r in transport)
    assert all(r["residual"] <= 1e-6 for r in ratio)
    assert all(r["residual"] <= 1e-12 for r in mult)
    assert records[0]["subtest"] == "nilpotent" and records[0]["residual"] == 0
    assert dt <= 3
    _report("C07", f"20 paths gap <= bound+1e-12 (worst excess "
            f"{max(r['residual'] for r in transport):.3e}), ratio and "
            f"multiplicativity subtests pass, {dt:.1f}s")


def test_C08_perturbed_holonomy(chen_run):
    records, _, _ = chen_run
    perturbed = [r for r in records if r["subtest"] == "perturbed"]
    exact = [r for r in records if r["subtest"] == "exact_zero"]
    assert len(perturbed) == 20 and len(exact) == 20
    assert all(r["gap"] <= 1e-11 for r in perturbed)
    assert all(r["pass"] and r["residual"] == 0.0 for r in exact)
    _report("C08", f"20 series vs exact arcs trials, worst gap "
            f"{max(r['gap'] for r in perturbed):.3e} <= 1e-11; "
            "20 zero-perturbation trials exact")


def test_C09_dgla_suite():
    records, summary = V.run_suite("dgla", seed=15, trials=8)
    assert summary["pass"], [r for r in records if not r["pass"]]
    assert all(r["axioms_pass"] for r in records)
    assert all(r["axioms_max"] <= 1e-12 for r in records)
    assert all(r["moment_fd"] <= 1e-5 for r in records)
    assert all(r["mc_converged"] for r in records)
    assert all(r["tangency"] <= 1e-8 for r in records)
    assert all(r["xi_homomorphism"] <= 1e-10 for r in records)
    _report("C09", f"8 instances: axioms <= 1e-12, moment FD <= "
            f"{max(r['moment_fd'] for r in records):.3e}, tangency <= "
            f"{max(r['tangency'] for r in records):.3e}, xi-hom <= "
            f"{max(r['xi_homomorphism'] for r in records):.3e}")


def _suite_report_bytes(suite, seed, trials):
    records, summary = V.run_suite(suite, seed=seed, trials=trials)
    return "\n".join(C.dumps(r) for r in records) + "\n" + C.dumps(summary)


def test_C10_determinism():
    for suite, trials in SUITE_SIZES.items():
        seed = {"goldman-gl": 11, "goldman-unoriented": 12, "jacobi": 13,
                "chen": 1, "dgla": 15, "variation": 14}[suite]
        first = _suite_report_bytes(suite, seed, trials)
        again = _suite_report_bytes(suite, seed, trials)
        assert first == again, f"report for {suite} changed under rerun"

    # the torus sweep and independence harness are seeded the same way
    reps = _commuting_torus_reps(41, count=4)
    probes = []
    for run in range(2):
        rows = []
        for r, s in itertools.product(range(-3, 4), repeat=2):
            ls = B.bracket_oriented(1, [1], B.torus_class_word(r, s),
                                    seed=17)
            rows.append(C.dumps(SC.loopsum_to_json(ls))
                        + C.dumps([ls.evaluate(rep) for rep in reps]))
        probes.append("\n".join(rows))
    assert probes[0] == probes[1]
    _report("C10", "all six suite reports and sweep probes byte-identical "
            "under rerun")
