"""Verification suites: randomized invariant batteries with fixed seeds.

Each suite maps (seed, trial index, options) to one plain-dict record,
so trials can be computed independently, in any order, and reassembled
deterministically: run_trial seeds the per-trial generator
np.random.default_rng([seed, index]) and nothing else is stateful.

Suites: goldman-gl and goldman-unoriented compare the combinatorial
bracket against the direct crossing-by-crossing pairing sum under a
representation; jacobi checks antisymmetry and the cyclic identity at
evaluation level; chen exercises the transport engine (error
certificate, factorial decay on a scalar-profile family, perturbed
holonomy against exact arcs, series multiplicativity); dgla sweeps instances
through the axiom battery, the moment identity, MC tangency and the
gauge homomorphism; variation compares closed-form gradients with
finite differences and the generic projection route.
"""

from __future__ import annotations

import inspect
import math
from functools import partial, reduce
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from . import bracket as B
from . import dgla as DG
from . import groups as G
from . import serialize as Z
from . import surface as S
from . import transport as T
from . import words as W
from .schema import SchemaError

_GL_GROUPS = ("GL(2,R)", "GL(2,C)")
_FORM_GROUPS = ("O(2)", "O(1,1)", "U(2)", "Sp(2,R)")
_VARIATION_GROUPS = ("GL(2,R)", "GL(2,C)", "O(2,1)", "O(2,C)", "U(1,1)",
                     "Sp(2,R)", "Sp(1,1)")


def random_reduced_word(rng: np.random.Generator, genus: int,
                        max_len: int = 6) -> list[int]:
    """Nonempty cyclically reduced word with letters in range."""
    letters = [k for k in range(-2 * genus, 2 * genus + 1) if k != 0]
    while True:
        length = int(rng.integers(1, max_len + 1))
        draw = [letters[int(rng.integers(len(letters)))] for _ in range(length)]
        word = W.cyclic_reduce(draw)
        if word:
            return word


def central_difference(f: Callable[..., float], k: int, h: float) -> float:
    """The mixed partial d^k f / dt_1 .. dt_k at 0 by the central stencil:
    the sum over s in {+1, -1}^k of prod(s) f(s h), over (2h)^k."""
    return sum(math.prod(s) * f(*(x * h for x in s))
               for s in product((1, -1), repeat=k)) / (2 ** k * h ** k)


def _goldman_record(rng: np.random.Generator, idx: int, *, tol: float,
                    unoriented: bool, genus=None, group=None) -> dict:
    groups = _FORM_GROUPS if unoriented else _GL_GROUPS
    gname = group or groups[idx % len(groups)]
    g = genus if genus is not None else 1 + (idx // len(groups)) % 2
    spec = Z.parse_group_string(gname)
    if (spec.kind in G.GL_KINDS) == unoriented:
        models = "form" if unoriented else "GL"
        raise SchemaError(f"this bracket models {models} kinds, not {gname}")
    rep = S.sample_representation(spec, g, rng)
    w1 = random_reduced_word(rng, g)
    w2 = random_reduced_word(rng, g)
    bracket = B.bracket_unoriented if unoriented else B.bracket_oriented
    value = bracket(g, w1, w2).evaluate(rep)
    direct = B.poisson_direct(rep, w1, w2)
    resid = abs(value - direct)
    rel = resid / (1.0 + abs(value))
    return {"genus": g, "group": gname,
            "word1": W.format_word(w1), "word2": W.format_word(w2),
            "value": value, "direct": direct, "residual": resid,
            "relative": rel, "pass": bool(rel <= tol)}


def jacobi_trial(rng: np.random.Generator, idx: int, *, tol: float,
                 genus=None, group=None) -> dict:
    odd = bool(idx % 2)
    gname = group or ("GL(2,R)", "U(2)", "GL(2,C)", "O(1,1)")[idx % 4]
    g = genus if genus is not None else 1 + (idx // 4) % 2
    spec = Z.parse_group_string(gname)
    # traces evaluate the unoriented bracket only under a form kind
    unoriented = odd and spec.kind not in G.GL_KINDS
    rep = S.sample_representation(spec, g, rng)
    words = [random_reduced_word(rng, g, max_len=3) for _ in range(3)]
    sums = [B.LoopSum([(w, 1)]) for w in words]

    def br(x, y):
        return B.bracket_sums(g, x, y, unoriented=unoriented)

    anti = br(sums[0], sums[1]) + br(sums[1], sums[0])
    jac = (br(sums[0], br(sums[1], sums[2])) + br(sums[1], br(sums[2], sums[0]))
           + br(sums[2], br(sums[0], sums[1])))
    anti_resid, jac_resid = abs(B.evaluate_many([anti, jac], [rep])[:, 0]).tolist()
    resid = max(anti_resid, jac_resid)
    return {"genus": g, "group": gname,
            "unoriented": unoriented,
            "words": [W.format_word(w) for w in words],
            "antisymmetry": anti_resid, "jacobi": jac_resid,
            "residual": resid, "pass": bool(resid <= tol)}


def _chen_random_path(rng: np.random.Generator) -> T.MatrixPath:
    """Gentle non-commuting path with r_hat roughly in [0.3, 1.2]."""
    target = rng.uniform(0.3, 1.15)
    m0 = rng.normal(size=(2, 2))
    m0 = target * m0 / np.linalg.norm(m0, 2)
    m1 = rng.normal(size=(2, 2))
    m1 = 0.02 * m1 / np.linalg.norm(m1, 2)
    phase = rng.uniform(0, 2 * np.pi)
    return T.MatrixPath(lambda t: m0 + np.cos(2 * np.pi * t + phase) * m1, 2)


def _norm_integral(path: T.MatrixPath) -> float:
    """int_0^1 |A(t)|_2 dt for a 1-periodic path by the 64-point periodic
    trapezoid rule, exact to rounding on the trigonometric chen paths.
    The term checks compare against it, not against r_hat: r_hat is an
    upper bound, padded by up to 3e-3 of the integral on these paths."""
    return float(np.mean([np.linalg.norm(path(t), 2) for t in np.arange(64) / 64]))


def _chen_ratio_path(rng: np.random.Generator) -> T.MatrixPath:
    m = rng.normal(size=(2, 2))
    m = m + (0.3 + np.linalg.norm(m, 2)) * np.eye(2)
    m = m / np.linalg.norm(m, 2)
    c = rng.uniform(0.5, 1.4)
    phase = rng.uniform(0, 2 * np.pi)

    def fn(t):
        return c * (1 + 0.3 * np.sin(2 * np.pi * t + phase)) * m

    return T.MatrixPath(fn, 2)


def _word_rep_pert(rng, scale):
    spec = Z.parse_group_string("U(2)" if rng.integers(2) else "GL(2,R)")
    g = 2
    rep = S.sample_representation(spec, g, rng)
    pert = {k + 1: scale * G.random_algebra_element(spec, rng)
            for k in range(2 * g)}
    return rep, pert


def chen_trial(rng: np.random.Generator, idx: int, *, tol: float) -> dict:
    if idx == 0:
        # constant nilpotent coefficient: one exact term, rest zero
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        res = T.picard_transport(T.MatrixPath(lambda t: n, 2), n_max=6)
        resid = float(np.linalg.norm(res.transport - np.eye(2) - n))
        return {"subtest": "nilpotent", "residual": resid,
                "pass": bool(resid <= 1e-13)}
    sub = ("transport", "ratio", "multiplicativity",
           "perturbed", "exact_zero")[(idx - 1) % 5]
    rec = {"subtest": sub}
    if sub == "transport":
        path = _chen_random_path(rng)
        res = T.picard_transport(path, n_max=12)
        gap = float(np.linalg.norm(res.transport - T.rk4_transport(path)))
        rho = _norm_integral(path)
        norm_ok = res.r_hat >= rho and all(
            np.linalg.norm(term, 2) <= rho ** k / math.factorial(k) * (1 + 1e-6)
            + 1e-12 for k, term in enumerate(res.terms))
        rec.update({"r_hat": res.r_hat, "gap": gap,
                    "remainder_bound": res.remainder_bound,
                    "residual": max(gap - res.remainder_bound, 0.0),
                    "term_bounds_ok": bool(norm_ok),
                    "pass": bool(gap <= res.remainder_bound and norm_ok)})
    elif sub == "ratio":
        path = _chen_ratio_path(rng)
        res = T.picard_transport(path, n_max=10)
        norms = [float(np.linalg.norm(t, 2)) for t in res.terms]
        rho = _norm_integral(path)
        worst = 0.0
        for k in range(10):
            if norms[k] < 1e-10:
                break
            worst = max(worst, norms[k + 1] / norms[k] - rho / (k + 1))
        rec.update({"r_hat": res.r_hat, "residual": worst,
                    "pass": bool(worst <= 1e-6)})
    elif sub == "multiplicativity":
        rep, pert = _word_rep_pert(rng, 0.2 / 3)
        u = random_reduced_word(rng, 2, max_len=3)
        v = random_reduced_word(rng, 2, max_len=3)
        out_u = T.perturbed_holonomy(rep, pert, u)
        out_v = T.perturbed_holonomy(rep, pert, v)
        out_uv = T.perturbed_holonomy(rep, pert, list(u) + list(v))
        hv = S.holonomy(rep, v)
        hv_inv = np.linalg.inv(hv)
        worst = 0.0
        for n in range(5):
            want = sum(out_v.series[n - i] @ hv @ out_u.series[i] @ hv_inv
                       for i in range(n + 1))
            worst = max(worst, float(np.linalg.norm(out_uv.series[n] - want)))
        rec.update({"word_u": W.format_word(u), "word_v": W.format_word(v),
                    "residual": worst, "pass": bool(worst <= tol)})
    elif sub == "perturbed":
        rep, pert = _word_rep_pert(rng, 0.05)
        word = random_reduced_word(rng, 2, max_len=6)
        out = T.perturbed_holonomy(rep, pert, word)
        gap = float(np.linalg.norm(
            out.value - T.rk4_perturbed_holonomy(rep, pert, word)))
        rec.update({"word": W.format_word(word), "gap": gap,
                    "residual": gap, "pass": bool(gap <= 1e-11)})
    else:
        rep, zero = _word_rep_pert(rng, 0.0)
        word = random_reduced_word(rng, 2, max_len=6)
        out = T.perturbed_holonomy(rep, zero, word, n_max=4)
        exact = bool(np.array_equal(out.value, S.holonomy(rep, word)))
        rec.update({"word": W.format_word(word),
                    "residual": 0.0 if exact else 1.0, "pass": exact})
    return rec


_DGLA_CONFIGS = ((1, "GL(2,R)"), (1, "U(2)"), (2, "GL(2,R)"), (1, "Sp(2,R)"),
                 (1, "GL(2,C)"), (2, "U(2)"), (1, "O(1,1)"), (1, "minimal"))


def dgla_trial(rng: np.random.Generator, idx: int, *, tol: float,
               genus=None, group=None) -> dict:
    g, gname = _DGLA_CONFIGS[idx % len(_DGLA_CONFIGS)]
    if genus is not None:
        g = genus
    if group:
        gname = group
    if gname == "minimal":
        inst = DG.minimal_differential_instance()
    else:
        inst = DG.surface_toy_instance(g, Z.parse_group_string(gname))
    report = DG.axioms_residual(inst)
    axioms_ok = DG.axioms_pass(report, tol=tol)
    d0, d1 = inst.dims

    moment_fd = 0.0
    for _ in range(5):
        x = rng.normal(size=d1)
        v = rng.normal(size=d1)
        a = rng.normal(size=d0)
        fd = central_difference(lambda t: DG.moment(inst, x + t * v, a), 1, 1e-4)
        moment_fd = max(moment_fd, abs(
            fd - DG.omega(inst, 1, DG.gauge_field(inst, a, x), v)))

    mc = DG.mc_solve(inst, rng)
    tangency = float("inf")
    if mc.converged:
        a = rng.normal(size=d0)
        xi = DG.gauge_field(inst, a, mc.x)
        tangency = float(np.linalg.norm(DG.linearized_mc(inst, mc.x) @ xi))

    xi_hom = 0.0
    for _ in range(5):
        x = rng.normal(size=d1)
        a = rng.normal(size=d0)
        b = rng.normal(size=d0)
        lhs = DG.gauge_field(inst, DG.bracket(inst, 0, a, 0, b), x)
        rhs = (DG.bracket(inst, 0, a, 1, DG.gauge_field(inst, b, x))
               - DG.bracket(inst, 0, b, 1, DG.gauge_field(inst, a, x)))
        xi_hom = max(xi_hom, float(np.linalg.norm(lhs - rhs)))

    ok = bool(axioms_ok and mc.converged and moment_fd <= 1e-5
              and tangency <= 1e-8 and xi_hom <= 1e-10)
    return {"genus": g, "group": gname,
            "axioms_max": max(v for k, v in report.items()
                              if not k.startswith("sigma")),
            "axioms_pass": bool(axioms_ok), "moment_fd": moment_fd,
            "mc_converged": bool(mc.converged), "mc_residual": mc.residual,
            "tangency": tangency, "xi_homomorphism": xi_hom, "pass": ok}


def variation_trial(rng: np.random.Generator, idx: int, *, tol: float,
                    group=None) -> dict:
    gname = group or _VARIATION_GROUPS[idx % len(_VARIATION_GROUPS)]
    spec = Z.parse_group_string(gname)
    g = G.random_element(spec, rng)
    x = G.random_algebra_element(spec, rng)

    def along(*zs):
        """(t_1, .., t_k) -> f(g exp(t_1 z_1) .. exp(t_k z_k))."""
        return lambda *ts: G.invariant_f(reduce(
            lambda m, tz: m @ G.expm(tz[0] * tz[1]), zip(ts, zs), g))

    fd = central_difference(along(x), 1, 1e-4)
    fd_resid = abs(fd - G.pairing(G.variation(spec, g), x))
    proj_resid = float(np.linalg.norm(
        G.variation(spec, g) - G.project_to_algebra(spec, g)))
    rec = {"group": gname, "fd_residual": fd_resid,
           "projection_residual": proj_resid}
    ok = fd_resid <= tol and proj_resid <= 1e-9
    if (idx // len(_VARIATION_GROUPS)) % 10 == 0:
        xs = [G.random_algebra_element(spec, rng)]
        y = G.random_algebra_element(spec, rng)
        mixed = central_difference(along(xs[0], y), 2, 1e-4)
        k1 = abs(mixed - G.pairing(G.variation(spec, g, xs), y))
        xs2 = xs + [G.random_algebra_element(spec, rng)]
        # third order: roundoff goes like eps/h^3, so h=1e-4 is too
        # small; 1e-3 balances it against the O(h^2) truncation
        m3 = central_difference(along(*xs2, y), 3, 1e-3)
        k2 = abs(m3 - G.pairing(G.variation(spec, g, xs2), y))
        rec.update({"khat1_residual": k1, "khat2_residual": k2})
        ok = ok and k1 <= 1e-4 and k2 <= 1e-4
    rec.update({"residual": fd_resid, "pass": bool(ok)})
    return rec


class Suite(NamedTuple):
    """A trial function trial(rng, idx, *, tol, ..) with its default trial
    count and tol.  Its keyword parameters after tol are the options the
    suite reads."""
    trial: Callable[..., dict]
    trials: int
    tol: float

    def reads(self, option: str) -> bool:
        """Whether the trial function takes `option` ("genus", "group")."""
        return option in inspect.signature(self.trial).parameters


SUITES = {
    "goldman-gl": Suite(partial(_goldman_record, unoriented=False), 50, 1e-8),
    "goldman-unoriented": Suite(partial(_goldman_record, unoriented=True),
                                50, 1e-8),
    "jacobi": Suite(jacobi_trial, 30, 1e-8),
    "chen": Suite(chen_trial, 26, 1e-7),
    "dgla": Suite(dgla_trial, 8, 1e-12),
    "variation": Suite(variation_trial, 700, 1e-5),
}


def run_trial(suite: str, seed: int, idx: int, genus=None, group=None,
              tol=None) -> dict:
    """One record, from the trial's own generator
    np.random.default_rng([seed, idx]); an option the suite does not
    read raises TypeError."""
    spec = SUITES[suite]
    given = {k: v for k, v in (("genus", genus), ("group", group))
             if v is not None}
    rng = np.random.default_rng([seed, idx])
    tol = spec.tol if tol is None else tol
    return {"trial": idx, **spec.trial(rng, idx, tol=tol, **given)}


def run_suite(suite: str, seed: int, trials=None, genus=None, group=None,
              tol=None) -> tuple[list[dict], dict]:
    """All records plus a summary; the CLI prints both as JSON lines."""
    n = SUITES[suite].trials if trials is None else trials
    records = [run_trial(suite, seed, i, genus=genus, group=group, tol=tol)
               for i in range(n)]
    return records, summarize(suite, seed, records)


def summarize(suite: str, seed: int, records: list[dict]) -> dict:
    failures = sum(1 for r in records if not r["pass"])
    max_resid = max((r.get("residual", 0.0) for r in records), default=0.0)
    return {"suite": suite, "seed": seed, "trials": len(records),
            "failures": failures, "max_residual": max_resid,
            "pass": bool(failures == 0)}
