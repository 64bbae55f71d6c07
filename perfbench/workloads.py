"""The four workloads: inputs made from the seed, timed calls into
loopbracket, and checks against reference.py.

A run repeats whole rounds until its time is up.  A round holds the
workload's own block of operations and a fixed light block of every other
kind (light_block), so each run reports every end-to-end metric and every
layer runs a little in the workloads that do not stress it.  Home blocks
draw their inputs from the seed; light blocks and every representation
come from fixed seeds, so their cost and outcome are the same in every run.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

import reference as R
import speed
from loopbracket import bracket as B
from loopbracket import groups as G
from loopbracket import serialize as Z
from loopbracket import surface as S
from loopbracket import transport as T

ORIENTED = ("GL(2,R)", "GL(2,C)", "GL(3,C)")
UNORIENTED = ("O(2,1)", "O(2,C)", "U(1,1)", "Sp(2,R)", "Sp(1,1)")
GOLDMAN_GROUPS = ORIENTED + UNORIENTED
# Word lengths of a pair: 12 to 32 letters with L1 * L2, which sets the
# crossing count, near 400, so that pairs cost about the same and the
# median bracket time does not hinge on the length mix.  Group j takes
# pair (j + round) mod 8.
LENGTH_PAIRS = ((12, 32), (15, 27), (17, 24), (20, 20), (24, 17), (27, 15), (32, 12), (13, 31))
SEVEN_KINDS = ("GL(2,R)", "GL(2,C)", "O(2,1)", "O(2,C)", "U(1,1)", "Sp(2,R)", "Sp(1,1)")
WORD_GROUPS = ("GL(2,R)", "U(1,1)", "Sp(2,R)", "O(2,C)")
WORD_LENGTHS = (1, 3, 5, 7, 9, 11, 12, 2, 4, 6, 8, 10)
# Representations are sampled from fixed seeds: on about 1-3 % of seeds
# sample_representation raises LinAlgError for the non-compact kinds at
# genus 2-3, which would make the failed share depend on --seed.
REP_SEED = 2006
LIGHT_SEED = 1957
# Goldman's identity holds to roundoff relative to the size of the terms
# summed, not of the result: long words under non-compact groups give
# terms near 1e5 that cancel to near 0.
GOLDMAN_TOL = 1e-8
TRACEBACK = "Traceback (most recent call last)"
# every CLI command is issued this many times, and its stdouts compared
CLI_REPEATS = 2


class Run:
    """Counts, samples and problems of one run.  With checks=False the
    operations run without their reference computations and checks, so
    that a process runs nothing but program calls (the memory probe)."""

    def __init__(self, seed: int, workdir: Path, env: dict, tracer=None,
                 cli_inprocess: bool = False, checks: bool = True):
        self.seed = seed
        self.checks = checks
        self.workdir = workdir
        self.env = env
        self.tracer = tracer
        self.cli_inprocess = cli_inprocess
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.problems: list[str] = []
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.short_calls = 0
        self.path_samples = 0
        self.certificate_violations = 0
        self.gauge = speed.Gauge()
        self.starts = speed.StartGauge(env)
        # slowdown of each CLI subprocess call, beside samples["cli_s"]
        self.cli_slowdowns: list[float] = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def attempt(self, label: str, fn):
        """One operation; an exception raised by the program fails it."""
        self.gauge.tick()
        self.attempted += 1
        try:
            with self.span(label):
                return fn()
        except Exception as err:
            self.fail(f"{label}: {type(err).__name__}: {err}")
            return None

    def timed(self, key: str, seconds: float):
        """One timing sample, stamped with the time it ended."""
        self.samples[key].append((seconds, time.perf_counter()))

    def fail(self, what: str):
        self.failed += 1
        self.failures[what] += 1

    def check(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)


def fixed_rep(group: str, genus: int):
    slot = GOLDMAN_GROUPS.index(group)
    rng = np.random.default_rng([REP_SEED, genus, slot])
    return S.sample_representation(Z.parse_group_string(group), genus, rng)


def _seed31(rng) -> int:
    return int(rng.integers(2 ** 31))


# --- operations ----------------------------------------------------------

def goldman_pair(run: Run, rng, genus: int, group: str, len1: int, len2: int):
    """Sample, bracket, evaluate and Poisson-side sum of one pair."""
    oriented = group in ORIENTED
    w1 = R.random_reduced_word(rng, genus, len1)
    w2 = R.random_reduced_word(rng, genus, len2)
    s_bracket, s_direct = _seed31(rng), _seed31(rng)
    fn = B.bracket_oriented if oriented else B.bracket_unoriented

    def op():
        t0 = time.perf_counter()
        rep = fixed_rep(group, genus)
        t1 = time.perf_counter()
        ls = fn(genus, w1, w2, seed=s_bracket)
        t2 = time.perf_counter()
        value = ls.evaluate(rep)
        direct = B.poisson_direct(rep, w1, w2, seed=s_direct)
        run.timed("pair_s", time.perf_counter() - t0)
        run.timed("bracket_s", t2 - t1)
        return rep, ls, value, direct

    out = run.attempt("goldman_pair", op)
    if out is None or not run.checks:
        return
    rep, ls, value, direct = out
    what = f"goldman {group} g{genus} [{R.format_word(w1)}] [{R.format_word(w2)}]"
    mine, scale = R.evaluate_terms(rep.images, ls.terms.items())
    run.check(abs(value - direct) <= GOLDMAN_TOL * (1 + abs(value) + scale),
              f"{what}: bracket evaluates to {value!r}, Poisson side {direct!r}, "
              f"terms of size {scale:.3e}")
    run.check(abs(value - mine) <= 1e-9 * (1 + scale),
              f"{what}: LoopSum.evaluate {value!r}, recomputed {mine!r}")


def torus_bracket(run: Run, p: int, q: int, r: int, s: int, seed: int):
    w1, w2 = R.torus_word(p, q), R.torus_word(r, s)

    def op():
        t0 = time.perf_counter()
        ls = B.bracket_oriented(1, w1, w2, seed=seed)
        run.timed("short_s", time.perf_counter() - t0)
        run.short_calls += 1
        return ls

    ls = run.attempt("torus_bracket", op)
    if ls is not None and run.checks:
        run.check(R.torus_classes(ls.terms.items()) == R.torus_bracket(p, q, r, s),
                  f"torus [({p},{q}),({r},{s})] = {ls!r}")


def jacobi_triple(run: Run, rng, genus: int, group: str, lengths=(2, 3, 4)):
    """Antisymmetry and Jacobi at evaluation level, through bracket_sums."""
    unoriented = group not in ORIENTED
    words = [R.random_reduced_word(rng, genus, n) for n in lengths]
    seeds = [_seed31(rng) for _ in range(8)]

    def op():
        rep = fixed_rep(group, genus)
        calls = 0

        def br(x, y, s):
            nonlocal calls
            calls += len(x.terms) * len(y.terms)
            return B.bracket_sums(genus, x, y, seed=s, unoriented=unoriented)

        t0 = time.perf_counter()
        a, b, c = (B.LoopSum([(w, 1)]) for w in words)
        anti = br(a, b, seeds[0]) + br(b, a, seeds[1])
        jac = (br(a, br(b, c, seeds[2]), seeds[3]) + br(b, br(c, a, seeds[4]), seeds[5])
               + br(c, br(a, b, seeds[6]), seeds[7]))
        out = anti.evaluate(rep), jac.evaluate(rep)
        run.timed("short_s", time.perf_counter() - t0)
        run.short_calls += calls
        return out

    out = run.attempt("jacobi_triple", op)
    if out is not None and run.checks:
        run.check(max(map(abs, out)) <= 1e-8,
                  f"jacobi {group} g{genus} {[R.format_word(w) for w in words]}: "
                  f"antisymmetry {out[0]!r}, jacobi {out[1]!r}")


def _certify(run: Run, bound, error):
    """The remainder bound must cover the measured error: its own operation."""
    run.attempted += 1
    if bound is None or not error <= bound:
        run.fail("remainder bound below the measured error")
        run.certificate_violations += 1


def smooth_path(run: Run, rng, dim: int, cplx: bool, r_hat: float):
    """A(t) = c (M0 + t M1 + sin(w t + phi) M2) scaled to the given r_hat.

    Not periodic on [0, 1], so the trapezoid error of the series is that
    of a generic smooth path."""
    mats = [rng.standard_normal((dim, dim)) + (1j * rng.standard_normal((dim, dim)) if cplx else 0)
            for _ in range(3)]
    w, phi = rng.uniform(2.0, 5.0), rng.uniform(0.0, 2 * np.pi)
    grid = np.linspace(0.0, 1.0, 257)
    norms = [np.linalg.norm(mats[0] + t * mats[1] + math.sin(w * t + phi) * mats[2], 2)
             for t in grid]
    m0, m1, m2 = (m * (r_hat / np.trapezoid(norms, grid)) for m in mats)

    def ref_fn(t):
        return m0 + t * m1 + math.sin(w * t + phi) * m2

    def fn(t):
        run.path_samples += 1
        return ref_fn(t)

    return fn, ref_fn


def path_transport(run: Run, rng, dim: int, cplx: bool, r_hat: float):
    fn, ref_fn = smooth_path(run, rng, dim, cplx, r_hat)
    path = T.MatrixPath(fn, dim)

    def op():
        t0 = time.perf_counter()
        res = T.picard_transport(path)
        rk4 = T.rk4_transport(path)
        run.timed("path_s", time.perf_counter() - t0)
        return res, rk4

    out = run.attempt("path_transport", op)
    what = f"path dim {dim} {'complex' if cplx else 'real'} r_hat {r_hat:.3f}"
    if out is None:
        _certify(run, None, None)
        return
    if not run.checks:
        return
    res, rk4 = out
    want = R.transport_reference(ref_fn, dim)
    scale = 1 + np.linalg.norm(want, 2)
    err = float(np.linalg.norm(res.transport - want, 2))
    run.check(err <= 1e-6 * scale, f"{what}: Picard off the reference by {err:.3e}")
    rk_err = float(np.linalg.norm(rk4 - want, 2))
    run.check(rk_err <= 1e-9 * scale, f"{what}: RK4 off the reference by {rk_err:.3e}")
    run.check(R.term_bounds_hold(res.terms, res.r_hat), f"{what}: |T_k| above r_hat^k/k!")
    _certify(run, res.remainder_bound, err)


def perturbed_word(run: Run, rng, group: str, length: int, r_hat: float):
    spec = Z.parse_group_string(group)
    word = R.random_reduced_word(rng, 2, length)
    raw = {k: G.random_algebra_element(spec, rng) for k in range(1, 5)}

    def op():
        rep = fixed_rep(group, 2)
        scale = r_hat / R.word_r_hat(rep.images, raw, word)
        pert = {k: scale * b for k, b in raw.items()}
        t0 = time.perf_counter()
        res = T.perturbed_holonomy(rep, pert, word)
        rk4 = T.rk4_perturbed_holonomy(rep, pert, word)
        run.timed("word_s", time.perf_counter() - t0)
        return rep, pert, res, rk4

    out = run.attempt("perturbed_word", op)
    what = f"word {group} [{R.format_word(word)}] r_hat {r_hat:.3f}"
    if out is None:
        _certify(run, None, None)
        return
    if not run.checks:
        return
    rep, pert, res, rk4 = out
    want = R.perturbed_reference(rep.images, pert, word)
    scale = 1 + np.linalg.norm(want, 2)
    err = float(np.linalg.norm(res.value - want, 2))
    run.check(err <= 1e-6 * scale, f"{what}: series off the expm product by {err:.3e}")
    rk_err = float(np.linalg.norm(rk4 - want, 2))
    run.check(rk_err <= 1e-9 * scale, f"{what}: RK4 off the expm product by {rk_err:.3e}")
    _certify(run, res.remainder_bound, err)


# --- CLI -----------------------------------------------------------------

def _cli_subprocess(run: Run, argv):
    proc = subprocess.run([sys.executable, "-m", "loopbracket", *argv], env=run.env,
                          cwd=run.workdir, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _cli_inprocess(run: Run, argv):
    from loopbracket import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as stop:
            rc = stop.code if isinstance(stop.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def cli_call(run: Run, argv, check):
    """Issue one command CLI_REPEATS times.  A call fails when it exits with an
    undocumented code, prints a traceback, or prints a non-finite number
    with exit 0; otherwise `check(rc, docs)` judges its output."""
    outs = []
    for _ in range(CLI_REPEATS):
        run.gauge.tick()
        run.attempted += 1
        with run.span("cli_call"):
            if run.cli_inprocess:
                t0 = time.perf_counter()
                rc, out, err = _cli_inprocess(run, argv)
                run.timed("cli_s", time.perf_counter() - t0)
            else:
                (rc, out, err), seconds, slow = run.starts.time(
                    partial(_cli_subprocess, run, argv))
                run.timed("cli_s", seconds)
                run.cli_slowdowns.append(slow)
        what = "loopbracket " + " ".join(argv).replace(f"{run.workdir}/", "")
        try:
            docs = [json.loads(line) for line in out.splitlines() if line.strip()]
        except json.JSONDecodeError:
            docs = None
        if rc not in (0, 1, 2, 3, 4):
            run.fail(f"{what}: undocumented exit {rc}")
            continue
        if TRACEBACK in err:
            run.fail(f"{what}: exit {rc} with a traceback, {err.strip().splitlines()[-1]}")
            continue
        if rc == 0 and (docs is None or R.nonfinite(docs)):
            run.fail(f"{what}: exit 0 with a non-finite or malformed output")
            continue
        problem = check(rc, docs)
        run.check(problem is None, f"{what}: {problem}")
        outs.append(out)
    run.check(len(set(outs)) <= 1, f"loopbracket {' '.join(argv)}: stdout differs between calls")


def write_json(run: Run, name: str, obj) -> str:
    path = run.workdir / name
    path.write_text(json.dumps(obj))
    return str(path)


def rep_json(rep) -> dict:
    return {"group": Z.group_to_json(rep.spec),
            "images": {R.format_word([k + 1]): R.matrix_to_json(m)
                       for k, m in enumerate(rep.images)}}


def expect_pass(rc, docs):
    if rc != 0:
        return f"exit {rc}"
    return None if docs and docs[-1].get("pass") is True else "summary does not pass"


def expect_documented(rc, docs):
    return None  # a documented exit code is all a fault case must give


def expect_rep(rc, docs):
    if rc != 0:
        return f"exit {rc}"
    rel, member = R.rep_residuals(docs[0])
    if rel > 1e-9 or member > 1e-9:
        return f"relator residual {rel:.3e}, membership residual {member:.3e}"
    return None


def expect_loopsum(want_terms=None, images=None, direct=None):
    """Bracket output: equal to the torus closed form, or evaluating to the
    Poisson-side sum under `images`."""
    def check(rc, docs):
        if rc != 0:
            return f"exit {rc}"
        terms = [(R.parse_word(t["word"]), Fraction(t["coef"])) for t in docs[0]]
        if want_terms is not None and R.torus_classes(terms) != want_terms:
            return f"{terms} differs from the closed form {want_terms}"
        if images is not None:
            value, scale = R.evaluate_terms(images, terms)
            if abs(value - direct) > GOLDMAN_TOL * (1 + abs(value) + scale):
                return f"evaluates to {value!r}, Poisson side {direct!r}"
        return None

    return check


def expect_holonomy(images, word, pert=None):
    def check(rc, docs):
        if rc != 0:
            return f"exit {rc}"
        doc = docs[0]
        want = float(np.trace(R.holonomy(images, word)).real)
        if abs(doc["trace"] - want) > 1e-9 * (1 + abs(want)):
            return f"trace {doc['trace']!r}, recomputed {want!r}"
        if pert is not None:
            ref = float(np.trace(R.perturbed_reference(images, pert, word)).real)
            if abs(doc["perturbed_trace"] - ref) > 1e-6 * (1 + abs(ref)):
                return f"perturbed trace {doc['perturbed_trace']!r}, expm product {ref!r}"
            if not doc["rk4_delta"] <= 1e-6:
                return f"rk4_delta {doc['rk4_delta']!r}"
        return None

    return check


def cli_bracket(run: Run, tag: str, genus: int, w1, w2, seed: int, check,
                unoriented: bool = False):
    path = write_json(run, f"curves-{tag}.json", {
        "genus": genus, "curves": {"u": R.format_word(w1), "v": R.format_word(w2)}})
    argv = ["bracket", path, "u", "v", "--seed", str(seed)]
    cli_call(run, argv + ["--unoriented"] * unoriented, check)


def cli_torus_bracket(run: Run, tag: str, p: int, q: int, r: int, s: int, seed: int):
    """Checked against the torus closed form."""
    check = expect_loopsum(want_terms=R.torus_bracket(p, q, r, s))
    cli_bracket(run, tag, 1, R.torus_word(p, q), R.torus_word(r, s), seed, check)


def cli_goldman_bracket(run: Run, tag: str, group: str, w1, w2, seed: int):
    """Genus 2, checked against the Poisson side under a `group` representation."""
    rep = fixed_rep(group, 2)
    direct = B.poisson_direct(rep, w1, w2, seed=seed + 1)
    check = expect_loopsum(images=rep.images, direct=direct)
    cli_bracket(run, tag, 2, w1, w2, seed, check, unoriented=group not in ORIENTED)


def cli_holonomy(run: Run, rng, tag: str, group: str, word, perturbed: bool):
    rep = fixed_rep(group, 2)
    argv = ["holonomy", write_json(run, f"rep-{tag}.json", rep_json(rep)), R.format_word(word)]
    pert = None
    if perturbed:
        raw = {k: G.random_algebra_element(rep.spec, rng) for k in range(1, 5)}
        scale = 0.3 / R.word_r_hat(rep.images, raw, word)
        pert = {k: scale * b for k, b in raw.items()}
        doc = {R.format_word([k]): R.matrix_to_json(b) for k, b in pert.items()}
        argv += ["--perturbation", write_json(run, f"pert-{tag}.json", doc)]
    cli_call(run, argv, expect_holonomy(rep.images, word, pert))


# --- rounds --------------------------------------------------------------
# A block returns its operations as calls not yet made; run_round spreads
# the light operations evenly between the workload's own, so that both
# sample the host's speed at many moments of the run.

def goldman_block(run: Run, rng, rnd: int):
    return [partial(goldman_pair, run, rng, genus, group, *LENGTH_PAIRS[(j + rnd) % 8])
            for genus in (2, 3) for j, group in enumerate(GOLDMAN_GROUPS)]


TORUS_BOX = range(-2, 3)


def short_block(run: Run, rng, rnd: int):
    box = [(p, q, r, s) for p in TORUS_BOX for q in TORUS_BOX
           for r in TORUS_BOX for s in TORUS_BOX]
    ops = [partial(torus_bracket, run, *box[i], seed=_seed31(rng))
           for i in rng.permutation(len(box))]
    # word lengths of a triple: 1-4 letters, the same multiset in every
    # round, so that rounds cost about the same
    groups = ("GL(2,R)", "GL(2,C)", "U(1,1)", "O(2,C)")
    return ops + [partial(jacobi_triple, run, rng, genus, group,
                          [1 + (j + k + rnd) % 4 for k in range(3)])
                  for genus in (1, 2, 3) for j, group in enumerate(groups)]


def chen_block(run: Run, rng, rnd: int):
    # r_hat up to 0.9: above about 1.1 the truncation bound comes within 10x
    # of the quadrature error on some paths, and whether the certificate
    # holds would then depend on the seed
    ops = [partial(path_transport, run, rng, dim, cplx, rng.uniform(0.3, 0.9))
           for dim in (2, 3, 4) for cplx in (False, True)]
    for j, group in enumerate(WORD_GROUPS):
        for half in (0, 1):
            length = WORD_LENGTHS[(2 * j + half + 8 * rnd) % len(WORD_LENGTHS)]
            ops.append(partial(perturbed_word, run, rng, group, length, rng.uniform(0.1, 0.6)))
    return ops


def cli_block(run: Run, rng, rnd: int):
    """Twenty commands over all five subcommands, each issued twice."""
    p, q, r, s = (int(x) for x in rng.integers(-3, 4, size=4))
    ops = [partial(cli_torus_bracket, run, "torus", p, q, r, s, _seed31(rng))]
    for group in ("GL(2,C)", "U(1,1)"):
        w1, w2 = (R.random_reduced_word(rng, 2, 6) for _ in range(2))
        ops.append(partial(cli_goldman_bracket, run, group, group, w1, w2, _seed31(rng)))
    word = R.random_reduced_word(rng, 2, 5)
    ops += [partial(cli_holonomy, run, rng, "plain", "GL(2,R)", word, False),
            partial(cli_holonomy, run, rng, "empty", "Sp(2,R)", [], False),
            partial(cli_holonomy, run, rng, "pert", "U(1,1)", word, True)]
    ops += [partial(cli_call, run, ["sample-rep", "--group", group, "--genus", "2", "--seed", "1"],
                    expect_rep) for group in SEVEN_KINDS]
    ops.append(partial(cli_call, run, ["dgla-check", "--toy", "GL(2,R)", "--genus", "2"],
                       expect_pass))
    ops += [partial(cli_call, run, ["verify", suite, "--trials", trials, "--seed", "11"],
                    expect_pass)
            for suite, trials in (("goldman-gl", "4"), ("dgla", "2"), ("variation", "14"))]
    # Known faults, on fixed inputs: each call fails until the sampler, the
    # representation schema and the output finiteness check are mended.
    # LinAlgError in the Gauss-Newton line search: exit 1 with a traceback
    ops.append(partial(cli_call, run, ["sample-rep", "--group", "O(2,1)", "--genus", "5",
                                       "--seed", "3"], expect_documented))
    singular = {"group": {"kind": "GL_R", "n": 2},
                "images": {"a1": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                           "b1": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}
    huge = {"group": {"kind": "GL_R", "n": 2},
            "images": {"a1": [[[1e308, 0], [0, 0]], [[0, 0], [1e-308, 0]]],
                       "b1": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}
    for name, doc, word in (("singular", singular, "a1"), ("huge", huge, "a1 a1")):
        argv = ["holonomy", write_json(run, f"{name}.json", doc), word]
        ops.append(partial(cli_call, run, argv, expect_documented))
    return ops


def light_block(run: Run, home: str):
    """A slice of every other kind of operation, on the same inputs every
    time, so that its cost does not depend on how many rounds a run has.
    Seven distinct pairs, an odd number, keep the median bracket time inside
    one pair's cluster of times."""
    rng = np.random.default_rng(LIGHT_SEED)
    ops = []
    if home != "goldman-long":
        ops += [partial(goldman_pair, run, rng, 2, group, 12, 12)
                for group in ("GL(2,R)", "U(1,1)", "GL(2,C)", "Sp(2,R)", "O(2,C)", "GL(3,C)",
                              "O(2,1)")]
    if home != "bracket-short":
        ops += [partial(torus_bracket, run, *(int(x) for x in rng.integers(-2, 3, size=4)),
                        seed=_seed31(rng)) for _ in range(48)]
        ops += [partial(jacobi_triple, run, rng, 2, group)
                for group in ("GL(2,R)", "U(1,1)", "GL(2,C)", "O(2,C)")]
    if home != "chen-transport":
        ops += [partial(path_transport, run, rng, 2, False, 0.8),
                partial(perturbed_word, run, rng, "U(1,1)", 4, 0.3),
                partial(path_transport, run, rng, 3, True, 0.6),
                partial(perturbed_word, run, rng, "GL(2,R)", 7, 0.4)]
    # issued twice, as in cli-session: a single subprocess call per round
    # gives too few samples for a steady median
    if home == "goldman-long":
        ops.append(partial(cli_goldman_bracket, run, "light", "GL(2,C)",
                           [1, 4, -1, 3, 2, 2], [2, 3, -4, 1, 1, 3], 5))
    elif home == "bracket-short":
        ops.append(partial(cli_torus_bracket, run, "light", 2, 1, -1, 3, 5))
    elif home == "chen-transport":
        ops.append(partial(cli_holonomy, run, rng, "light", "GL(2,R)", [1, 4, -1, 3], True))
    return ops


WORKLOADS = {"goldman-long": goldman_block, "bracket-short": short_block,
             "chen-transport": chen_block, "cli-session": cli_block}
# cli-session has one long round; four light blocks give its in-process
# metrics enough samples
LIGHT_REPEATS = {"cli-session": 4}


def interleave(home: list, light: list) -> list:
    """home in order, with light spread evenly between its items."""
    out, j = [], 0
    for i, op in enumerate(home, 1):
        out.append(op)
        while j < len(light) and j * len(home) < i * len(light):
            out.append(light[j])
            j += 1
    return out + light[j:]


def round_rng(run: Run, workload: str, rnd: int):
    return np.random.default_rng([run.seed, list(WORKLOADS).index(workload), rnd])


def run_round(run: Run, workload: str, rnd: int):
    rng = round_rng(run, workload, rnd)
    with run.span(f"round.{workload}"):
        light = [op for _ in range(LIGHT_REPEATS.get(workload, 1))
                 for op in light_block(run, workload)]
        home = WORKLOADS[workload](run, rng, rnd)
        # Between subprocess calls an in-process operation starts cold and
        # the host-speed samples around it are few, so cli-session runs its
        # light blocks together.
        ops = light + home if workload == "cli-session" else interleave(home, light)
        for op in ops:
            op()
