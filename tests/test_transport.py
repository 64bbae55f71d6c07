"""Transport series against closed forms, RK4, and its own error certificate."""

import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from loopbracket import groups as G
from loopbracket import serialize as Z
from loopbracket import surface as S
from loopbracket import transport as T


def _smooth_path(rng, d=2, amp=0.02):
    m0 = rng.normal(size=(d, d)) * 0.4
    m1 = rng.normal(size=(d, d))
    phase = rng.uniform(0, 2 * np.pi)

    def fn(t):
        return m0 + amp * np.cos(2 * np.pi * t + phase) * m1

    return T.MatrixPath(fn, d)


def test_constant_nilpotent_is_exact():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    path = T.MatrixPath(lambda t: n, 2)
    res = T.picard_transport(path, n_max=6)
    # N^2 = 0 kills every term past the first; a constant path takes the
    # closed-form arc levels N^k / k!
    assert np.allclose(res.transport, np.eye(2) + n, atol=1e-14)
    for k in range(2, 7):
        assert np.linalg.norm(res.terms[k]) < 1e-14
    assert abs(res.r_hat - 1.0) < 1e-12


def test_commuting_profile_matches_expm():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(2, 2)) * 0.15
    path = T.MatrixPath(lambda t: (1 + t * t) * m, 2)
    want = expm((4.0 / 3.0) * m)
    res = T.picard_transport(path, n_max=12)
    assert res.r_hat < 1.0
    assert np.linalg.norm(res.transport - want) < 1e-12
    assert np.linalg.norm(T.rk4_transport(path) - want) < 1e-10


def test_term_norms_obey_factorial_bound():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        path = _smooth_path(rng, amp=0.05)
        res = T.picard_transport(path, n_max=12)
        # the periodic trapezoid rule is exact to rounding here; r_hat is
        # a padded upper bound on the same integral
        rho = np.mean([np.linalg.norm(path(t), 2) for t in np.arange(64) / 64])
        assert res.r_hat >= rho
        for k, term in enumerate(res.terms):
            bound = rho ** k / factorial(k)
            assert np.linalg.norm(term, 2) <= bound * (1 + 1e-6) + 1e-12


def test_remainder_certificate_covers_rk4_gap():
    for seed in range(4):
        rng = np.random.default_rng(seed + 100)
        path = _smooth_path(rng)
        res = T.picard_transport(path, n_max=12)
        gap = np.linalg.norm(res.transport - T.rk4_transport(path))
        assert gap <= res.remainder_bound + 1e-12


def test_negated_path_inverts_constant_transport():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(2, 2)) * 0.4
    negated = T.MatrixPath(lambda t: -m, 2)
    plus = T.picard_transport(T.MatrixPath(lambda t: m, 2), n_max=14).transport
    minus = T.picard_transport(negated, n_max=14).transport
    assert np.linalg.norm(plus @ minus - np.eye(2)) < 1e-12
    assert np.linalg.norm(minus - expm(-m)) < 1e-12
    assert np.linalg.norm(T.rk4_transport(negated) - expm(-m)) < 1e-9


def test_concat_composes_transports():
    # p1 then p2 at double speed, p2 shifted to start where p1 ends, so
    # the joined path is continuous, with a kink at t = 1/2
    for seed in range(21, 25):
        rng = np.random.default_rng(seed)
        p1 = _smooth_path(rng, amp=0.05)
        q = _smooth_path(rng, amp=0.05)
        shift = p1(1.0) - q(0.0)
        p2 = T.MatrixPath(lambda t: q(t) + shift, 2)
        cat = T.MatrixPath(lambda t: 2.0 * (p1(2.0 * t) if t < 0.5
                                            else p2(2.0 * t - 1.0)), 2)
        r1 = T.picard_transport(p1, n_max=20).transport
        r2 = T.picard_transport(p2, n_max=20).transport
        rc = T.picard_transport(cat, n_max=20).transport
        assert np.linalg.norm(rc - r2 @ r1) < 1e-12
        want = T.rk4_transport(p2) @ T.rk4_transport(p1)
        assert np.linalg.norm(T.rk4_transport(cat) - want) < 1e-10


def test_each_grid_node_is_sampled_once():
    calls = []

    def path(fn):
        return T.MatrixPath(lambda t: calls.append(t) or fn(t), 2)

    m = np.array([[0.1, 0.3], [-0.2, 0.4]])
    for fn in (lambda t: np.eye(2),                       # constant panel
               lambda t: np.cos(3 * t) * m,               # one panel
               lambda t: abs(t - 0.3) * m):               # bisected panels
        calls.clear()
        res = T.picard_transport(path(fn), n_max=3)
        assert len(calls) == res.nodes == len(set(calls))
    assert res.nodes > 2 * 65       # the kink forced bisection
    for n_steps in (1, 2, 7, 32):
        calls.clear()
        T.rk4_transport(path(lambda t: np.eye(2)), n_steps)
        # the four Gauss nodes of each step, once each
        assert len(calls) == len(set(calls)) == 4 * n_steps


@pytest.mark.parametrize("size", T._SIZES)
def test_panel_operators_are_exact_on_polynomials(size):
    # a degree <= 8 polynomial is its own interpolant on every grid, so
    # integ, trap and second act on it as integral, value and d^2/ds^2
    from numpy.polynomial.chebyshev import chebval

    x, _, integ, trap, second = T._chebyshev(size)
    s = np.linspace(-1.0, 1.0, T._TRAP + 1)
    for m in range(9):
        f = x ** m
        assert np.abs(integ @ f - x ** (m + 1) / (m + 1)).max() <= 1e-14, m
        assert np.abs(trap @ f - ((s + 1) / 2) ** m).max() <= 1e-13, m
        # differentiation amplifies rounding: 1.5e-8 at 65 points
        want = m * (m - 1) / 4 * ((s + 1) / 2) ** max(m - 2, 0)
        assert np.abs(chebval(s, second @ f) - want).max() <= 1e-7, m


def test_n_steps_is_accepted_and_ignored():
    # perfbench/probe.py passes n_steps=4; ROADMAP item 4 deletes the parameter
    path = _smooth_path(np.random.default_rng(4))
    res = T.picard_transport(path, n_steps=4)
    assert np.array_equal(res.transport, T.picard_transport(path).transport)


def test_benchmark_setup_probe_runs():
    # the benchmark's set-up probe calls picard_transport and rk4_transport
    # with n_steps=4 (and one tiny call into every other layer): a change of
    # those signatures would fail every benchmark run before it measured
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, str(root / "perfbench" / "probe.py"), "api"],
                         capture_output=True, text=True, env=env, cwd=root)
    assert out.returncode == 0, out.stderr
    assert math.isfinite(float(out.stdout)), out.stdout


def _gauss_step_loop(path, n_steps):
    """rk4_transport one step at a time: solve the step's 4d x 4d stage
    system K_i - h sum_j a_ij A_i K_j = A_i, then r = step @ r."""
    d, h = path.dim, 1.0 / n_steps
    r = np.eye(d, dtype=complex)
    for k in range(n_steps):
        a = [path((k + c) / n_steps) for c in T._GAUSS_C]
        system = np.block([[np.eye(d) * (i == j) - h * T._GAUSS_A[i, j] * a[i]
                            for j in range(4)] for i in range(4)])
        stages = np.linalg.solve(system, np.vstack(a)).reshape(4, d, d)
        r = (np.eye(d) + h * sum(b * s for b, s in zip(T._GAUSS_B, stages))) @ r
    return r


@pytest.mark.parametrize("n_steps", [1, 2, 4, 7, 14, 200])
def test_batched_rk4_matches_step_loop(n_steps):
    path = _smooth_path(np.random.default_rng(n_steps), d=3, amp=0.3)
    got = T.rk4_transport(path, n_steps)
    want = _gauss_step_loop(path, n_steps)
    # the products are grouped differently: roundoff only
    assert np.linalg.norm(got - want, 2) <= 1e-14 * np.linalg.norm(want, 2)


@pytest.mark.parametrize("n_steps", [-2, 0])
def test_rk4_rejects_odd_or_too_few_steps(n_steps):
    # odd counts are valid too: only counts below 1 raise
    path = T.MatrixPath(lambda t: np.eye(2), 2)
    with pytest.raises(ValueError, match="at least 1"):
        T.rk4_transport(path, n_steps)


def _commuting_profiles(count=40):
    """(A, d, exp(int A)) for A(t) = f(t) M with f > 0, so that the
    transport is the exponential of the integral.  M has 2-norm 1 and
    int |A|_2 is drawn from [0.5, 5]."""
    rng = np.random.default_rng(2024)
    for i in range(count):
        d = 2 + i % 3
        m = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if i % 2 else 0)
        m /= np.linalg.norm(m, 2)
        c = rng.uniform(-1, 1, 3)
        w, phi = rng.uniform(0.5, 3.0), rng.uniform(0, 2 * np.pi)
        c0 = 1 + np.abs(c).sum()
        big_f = c0 + c[0] / 2 + c[1] / 3 + c[2] * (np.cos(phi) - np.cos(w + phi)) / w
        s = rng.uniform(0.5, 5.0) / big_f

        def fn(t, c=c, w=w, phi=phi, c0=c0, s=s, m=m):
            return s * (c0 + c[0] * t + c[1] * t * t + c[2] * np.sin(w * t + phi)) * m

        yield fn, d, expm(s * big_f * m)


def _plain_rk4(fn, n_steps):
    """Classical RK4 with n_steps uniform steps, all steps built at once."""
    a = np.array([fn(t) for t in np.linspace(0.0, 1.0, 2 * n_steps + 1)], dtype=complex)
    a0, am, a1 = a[:-1:2], a[1::2], a[2::2]
    h, eye = 1.0 / n_steps, np.eye(a.shape[-1])
    k2 = am @ (eye + h / 2 * a0)
    k3 = am @ (eye + h / 2 * k2)
    k4 = a1 @ (eye + h * k3)
    return T._tree_product(eye + h / 6 * (a0 + 2 * (k2 + k3) + k4))


def test_gauss_rk_beats_plain_rk4_on_more_samples():
    # worst relative error over these 40 paths: 7.0e-14 for the default
    # (32 steps, 128 samples), 4.7e-13 for plain RK4 with 2000 steps
    # (4001 samples); both are truncation error, not rounding
    bound = 1.5e-13
    worst = plain_worst = 0.0
    for fn, d, want in _commuting_profiles():
        scale = np.linalg.norm(want, 2)
        got = T.rk4_transport(T.MatrixPath(fn, d))
        worst = max(worst, np.linalg.norm(got - want, 2) / scale)
        plain = _plain_rk4(fn, 2000)
        plain_worst = max(plain_worst, np.linalg.norm(plain - want, 2) / scale)
    assert worst <= bound < plain_worst, (worst, plain_worst)


@pytest.mark.parametrize("profile", range(6))
def test_gauss_rk_has_order_eight(profile):
    # halving h divides the error by about 2^8 = 256
    fn, d, want = list(_commuting_profiles(6))[profile]
    path = T.MatrixPath(fn, d)
    err = [np.linalg.norm(T.rk4_transport(path, n) - want, 2) for n in (2, 4)]
    assert err[0] >= 200 * err[1], err


def test_gauss_tableau_is_numpys_leggauss():
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(4)
    assert np.abs(T._GAUSS_C - (1 + x) / 2).max() <= 1e-15
    assert np.abs(T._GAUSS_B - w / 2).max() <= 1e-15
    # a_ij integrates the Lagrange basis: exact on polynomials of degree < 4
    for m in range(4):
        assert np.abs(T._GAUSS_A @ T._GAUSS_C ** m
                      - T._GAUSS_C ** (m + 1) / (m + 1)).max() <= 1e-15


def _dop853(fn, d, breaks=()):
    """R(1) by DOP853 at rtol 1e-13, restarted at each kink in breaks."""
    r = np.eye(d, dtype=complex)
    knots = [0.0, *breaks, 1.0]
    for a, b in zip(knots[:-1], knots[1:]):
        sol = solve_ivp(lambda t, y: (fn(t) @ y.reshape(d, d)).ravel(), (a, b),
                        r.ravel(), method="DOP853", rtol=1e-13, atol=1e-15)
        r = sol.y[:, -1].reshape(d, d)
    return r


def _nonperiodic_cases():
    rng = np.random.default_rng(73)
    for i in range(12):
        d = 2 + i % 3
        cplx = i % 2 == 1
        m0, m1, m2 = (rng.normal(size=(d, d))
                      + (1j * rng.normal(size=(d, d)) if cplx else 0)
                      for _ in range(3))
        w, phi = rng.uniform(2.0, 8.0), rng.uniform(0.0, 2 * np.pi)
        c = rng.uniform(0.3, 0.9) / (np.linalg.norm(m0, 2) + np.linalg.norm(m2, 2))
        yield (lambda t, m0=m0, m1=m1, m2=m2, w=w, phi=phi, c=c:
               c * (m0 + t * m1 + np.sin(w * t + phi) * m2)), d, ()
    m0, m1 = rng.normal(size=(2, 2)) * 0.4, rng.normal(size=(2, 2)) * 0.4
    yield (lambda t: m0 + abs(t - 0.5) * m1), 2, (0.5,)


@pytest.mark.parametrize("case", range(13))
def test_picard_meets_dop853_within_its_certificate(case):
    fn, d, breaks = list(_nonperiodic_cases())[case]
    path = T.MatrixPath(fn, d)
    want = _dop853(fn, d, breaks)
    res = T.picard_transport(path, n_max=20)
    err = np.linalg.norm(res.transport - want, 2)
    assert err <= res.remainder_bound, (err, res.remainder_bound)
    assert err <= 1e-12 * (1 + np.linalg.norm(want, 2)), err
    y = np.array([np.linalg.norm(fn(t), 2) for t in np.linspace(0.0, 1.0, 4097)])
    integral = (y.sum() - (y[0] + y[-1]) / 2) / 4096
    assert res.r_hat >= integral, (res.r_hat, integral)
    assert np.linalg.norm(T.rk4_transport(path) - want, 2) <= 1e-12


def test_kinks_anywhere_are_resolved_alike():
    # a kink is bisected down to the shortest panel wherever it lies; no
    # panel is left coarse because others used up the samples first
    rng = np.random.default_rng(19)
    m0, m1 = rng.normal(size=(2, 2)) * 0.4, rng.normal(size=(2, 2)) * 0.4
    for kinks in ((1 / 3,), (0.1, 0.3, 0.7), (0.7, 0.8, 0.9),
                  (0.11, 0.23, 0.37, 0.59, 0.83)):
        def fn(t, kinks=kinks):
            return m0 + sum(abs(t - k) for k in kinks) * m1
        res = T.picard_transport(T.MatrixPath(fn, 2))
        err = np.linalg.norm(res.transport - _dop853(fn, 2, kinks), 2)
        assert err <= res.remainder_bound <= 1e-8, (kinks, err, res.remainder_bound)
        assert err <= 1e-11, (kinks, err)
        assert res.nodes <= 1100 * len(kinks), (kinks, res.nodes)


def test_noisy_path_stops_bisecting():
    # 1e-9 relative noise in every sample is never resolved; bisection
    # stops after _MAX_FORKS rounds that leave both halves unresolved
    rng = np.random.default_rng(23)
    m0 = rng.normal(size=(2, 2)) * 0.4
    noise = np.random.default_rng(29)
    res = T.picard_transport(
        T.MatrixPath(lambda t: m0 * (1 + 1e-9 * noise.standard_normal()), 2))
    assert res.nodes <= 65 * 2 ** (T._MAX_FORKS + 1), res.nodes
    err = np.linalg.norm(res.transport - expm(m0), 2)
    assert err <= res.remainder_bound <= 1e-7, (err, res.remainder_bound)


def test_tail_bound_frozen_values():
    # r = 1, n = 2: e - 1 - 1 - 1/2
    assert abs(T.series_tail_bound(1.0, 2) - (np.e - 2.5)) < 1e-14
    assert T.series_tail_bound(0.0, 5) == 0.0
    assert T.series_tail_bound(2.0, 12) < T.series_tail_bound(2.0, 6)


@pytest.mark.parametrize("r_hat", [300.0, 500.0, 700.0])
def test_tail_bound_past_the_peak_term(r_hat):
    # terms r^k / k! still grow for k < r: the sum must run past them
    got = T.series_tail_bound(r_hat, 12)
    with localcontext() as ctx:  # prec=40 as a keyword needs Python 3.11
        ctx.prec = 40
        r = Decimal(r_hat)
        want = r.exp() - sum(r ** k / math.factorial(k) for k in range(13))
        assert abs(Decimal(got) / want - 1) < Decimal("1e-12")


def _tail_bound_to_1e300(r_hat, n_max):
    """series_tail_bound as it summed before it stopped at half an ulp."""
    if not r_hat < math.inf:
        return math.inf
    try:
        term = r_hat ** (n_max + 1) / math.factorial(n_max + 1)
    except OverflowError:
        return math.inf
    total, k = 0.0, n_max + 1
    while term > 1e-300 or k < r_hat:
        total += term
        if total == math.inf:
            return math.inf
        k += 1
        term *= r_hat / k
    return total


@pytest.mark.parametrize("n_max", [0, 4, 12])
@pytest.mark.parametrize("r_hat", [0.0, 1e-3, 0.3, 0.9, 5.0, 50.0, 700.0, 800.0,
                                   math.inf])
def test_tail_bound_stops_early_without_changing_a_bit(r_hat, n_max):
    assert T.series_tail_bound(r_hat, n_max) == _tail_bound_to_1e300(r_hat, n_max)


def test_tail_bound_overflow_is_inf():
    assert T.series_tail_bound(800.0, 12) == math.inf
    assert T.series_tail_bound(1e30, 12) == math.inf


# --- Chen products ---


def _cauchy_product(later, earlier):
    """Truncated Cauchy product of two level lists, later on the left."""
    return np.array([sum(later[k - i] @ earlier[i] for i in range(k + 1))
                     for k in range(len(earlier))])


def _random_levels(rng, size, d, cplx):
    levels = rng.normal(size=(size, d, d))
    if cplx:
        levels = levels + 1j * rng.normal(size=(size, d, d))
    return levels / np.arange(1, size + 1)[:, None, None]


@pytest.mark.parametrize("n_max", [0, 4, 12])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("cplx", [False, True])
def test_chen_product_is_the_cauchy_product(n_max, d, cplx):
    rng = np.random.default_rng([n_max, d, cplx])
    later, earlier, third = (_random_levels(rng, n_max + 1, d, cplx) for _ in range(3))
    want = _cauchy_product(later, earlier)
    got = T._chen_product(later, earlier)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
    # a stack of later paths is applied first to last
    want = _cauchy_product(third, want)
    got = T._chen_product(np.stack([later, third]), earlier)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_arc_levels_stack_matches_one_arc_at_a_time():
    rng = np.random.default_rng(7)
    c = 0.2 * (rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3)))
    stacked = T._arc_levels(c, 12)
    assert stacked.shape == (5, 13, 3, 3)
    for j in range(5):
        assert np.array_equal(stacked[j], T._arc_levels(c[j], 12))
        err = np.linalg.norm(stacked[j].sum(axis=0) - expm(c[j]), 2)
        assert err <= T.series_tail_bound(np.linalg.norm(c[j], 2), 12) + 1e-14


# --- perturbed holonomy ---


def _rep_and_pert(kind, genus, seed, scale):
    spec = G.GroupSpec(kind, 2)
    rng = np.random.default_rng(seed)
    rep = S.sample_representation(spec, genus, rng)
    pert = {k + 1: scale * G.random_algebra_element(spec, rng)
            for k in range(2 * genus)}
    return rep, pert


def _expm_perturbed_holonomy(rep, pert, word):
    """Closed form: each arc has a constant coefficient, so it contributes
    exp(-B_j) in the current frame, giving prod_j rho(x_j) exp(-B_j) with
    the last letter's factors leftmost."""
    p = np.eye(rep.spec.matrix_dim, dtype=complex)
    for x in word:
        b = np.asarray(pert[abs(x)], dtype=complex)
        p = rep.letters[x] @ expm(-b if x > 0 else b) @ p
    return p


_GROUPS = ["GL(2,R)", "GL(2,C)", "O(2,1)", "O(2,C)", "U(1,1)", "Sp(2,R)", "Sp(1,1)"]


def _random_word(rng, genus, length):
    word = []
    while len(word) < length:
        x = int(rng.integers(1, 2 * genus + 1)) * (1 if rng.integers(2) else -1)
        if not word or word[-1] != -x:
            word.append(x)
    return word


def _group_cases(group, count=8):
    """A genus-2 representation, a perturbation at r_hat about 0.1-0.6 per
    word, and words of 0 to 12 letters, the empty word first."""
    spec = Z.parse_group_string(group)
    rng = np.random.default_rng([83, *group.encode()])
    rep = S.sample_representation(spec, 2, rng)
    for length in [0, *rng.integers(1, 13, size=count - 1)]:
        word = _random_word(rng, 2, length)
        scale = rng.uniform(0.02, 0.15)
        pert = {k + 1: scale * G.random_algebra_element(spec, rng) for k in range(4)}
        yield rep, pert, word


def _certificate_per_letter(rep, pert, word, n_max=12):
    """(r_hat, remainder_bound) of perturbed_holonomy, one letter at a time."""
    d = rep.spec.matrix_dim
    psi = psi_inv = np.eye(d, dtype=complex)
    r_hat, letters_norm = 0.0, 1.0
    for x in word:
        b = np.asarray(pert[abs(x)], dtype=complex)
        c = psi_inv @ (b if x < 0 else -b) @ psi
        r_hat += float(np.linalg.norm(c, 2))
        letters_norm *= float(np.linalg.norm(rep.letters[x], 2))
        psi = rep.letters[x] @ psi
        psi_inv = psi_inv @ rep.letters[-x]
    rounding = (len(word) + n_max) * d * 2.0 ** -53 * np.exp(r_hat) * letters_norm
    return r_hat, float(np.linalg.norm(psi, 2) * T.series_tail_bound(r_hat, n_max)
                        + rounding)


@pytest.mark.parametrize("group", _GROUPS)
def test_stacked_routes_match_the_per_letter_formulas_bit_for_bit(group):
    # the exact-arc route takes one scaling and Pade degree for the whole
    # stack, so its bits depend on the other arcs: it meets the per-letter
    # closed form at rounding size, the certificate bit for bit
    for rep, pert, word in _group_cases(group):
        want = _expm_perturbed_holonomy(rep, pert, word)
        err = np.linalg.norm(T.rk4_perturbed_holonomy(rep, pert, word) - want, 2)
        assert err <= 2e-14 * (1 + np.linalg.norm(want, 2)), (word, err)
        out = T.perturbed_holonomy(rep, pert, word)
        assert (out.r_hat, out.remainder_bound) == _certificate_per_letter(
            rep, pert, word), word


def test_exact_arc_route_stays_at_rounding_size_on_long_words():
    # a U(2) word's holonomy has norm 1, so the error does not hide in a
    # relative bound; a stepping integrator's error grows with the length
    spec = G.GroupSpec("U_pq", 2, 2, 0)
    rng = np.random.default_rng(5)
    rep = S.sample_representation(spec, 2, rng)
    pert = {k + 1: 0.3 * G.random_algebra_element(spec, rng) for k in range(4)}
    word = _random_word(rng, 2, 3000)
    for length in (400, 1000, 3000):
        got = T.rk4_perturbed_holonomy(rep, pert, word[:length])
        want = _expm_perturbed_holonomy(rep, pert, word[:length])
        assert np.linalg.norm(got - want, 2) <= 1e-12, length


def test_empty_path_levels_match_the_zero_arc_levels(monkeypatch):
    # perturbed_holonomy starts from the empty path's levels (I, 0, .., 0)
    # built directly; the zero arc's levels it once built by n_max
    # matmuls have the same bits, and so does the word's product
    chen, calls = T._chen_product, []

    def checked(later, earlier):
        n_max, d = len(earlier) - 1, earlier.shape[-1]
        zero_arc = T._arc_levels(np.zeros((d, d)), n_max)
        assert earlier.dtype == zero_arc.dtype and np.array_equal(earlier, zero_arc)
        got = chen(later, earlier)
        assert np.array_equal(got, chen(later, zero_arc))
        calls.append(n_max)
        return got

    monkeypatch.setattr(T, "_chen_product", checked)
    for group in _GROUPS:
        for rep, pert, word in _group_cases(group, count=15):
            for n_max in (0, 4, 12):
                T.perturbed_holonomy(rep, pert, word, n_max=n_max)
    assert len(calls) == 3 * 15 * len(_GROUPS)


def test_zero_perturbation_reproduces_holonomy_exactly():
    rep, _ = _rep_and_pert("GL_R", 2, 5, 0.0)
    d = rep.spec.matrix_dim
    pert = {k: np.zeros((d, d)) for k in range(1, 5)}
    word = [1, 2, -1, 3]
    out = T.perturbed_holonomy(rep, pert, word, n_max=6)
    assert np.array_equal(out.value, S.holonomy(rep, word))
    for k in range(1, 7):
        assert np.all(out.series[k] == 0)


@pytest.mark.parametrize("group", _GROUPS)
def test_zero_perturbation_is_exact_for_every_kind(group):
    for rep, pert, word in _group_cases(group, count=4):
        zeros = {k: np.zeros_like(b) for k, b in pert.items()}
        for n_max in (4, 12):
            out = T.perturbed_holonomy(rep, zeros, word, n_max=n_max)
            assert np.array_equal(out.value, S.holonomy(rep, word)), word
            assert np.array_equal(out.hol, S.holonomy(rep, word))
            assert len(out.series) == n_max + 1
            for k in range(1, n_max + 1):
                assert np.all(out.series[k] == 0)


@pytest.mark.parametrize("kind,genus", [("GL_R", 1), ("GL_R", 2), ("U_pq", 2)])
def test_perturbed_holonomy_three_routes_agree(kind, genus):
    if kind == "U_pq":
        spec = G.GroupSpec(kind, 2, 2, 0)
    else:
        spec = G.GroupSpec(kind, 2)
    rng = np.random.default_rng(17 + genus)
    rep = S.sample_representation(spec, genus, rng)
    pert = {k + 1: 0.05 * G.random_algebra_element(spec, rng)
            for k in range(2 * genus)}
    word = [1, 2, -1, -2, 1] if genus == 1 else [1, 2, -3, 4, -1]
    out = T.perturbed_holonomy(rep, pert, word)
    rk4 = T.rk4_perturbed_holonomy(rep, pert, word)
    closed = _expm_perturbed_holonomy(rep, pert, word)
    assert np.linalg.norm(out.value - rk4) <= out.remainder_bound
    assert np.linalg.norm(out.value - closed) <= out.remainder_bound
    assert np.linalg.norm(out.series[0] - np.eye(2)) < 1e-12
    rebuilt = sum(out.series) @ S.holonomy(rep, word)
    assert np.linalg.norm(rebuilt - out.value) < 1e-10


@pytest.mark.parametrize("group", ["GL(2,R)", "GL(2,C)", "O(2,1)", "O(2,C)",
                                   "U(1,1)", "Sp(2,R)", "Sp(1,1)"])
def test_perturbed_holonomy_matches_expm_with_honest_bound(group):
    spec = Z.parse_group_string(group)
    rng = np.random.default_rng([61, *group.encode()])
    rep = S.sample_representation(spec, 2, rng)
    raw = {k + 1: G.random_algebra_element(spec, rng) for k in range(4)}
    for length in range(13):
        word = []
        while len(word) < length:
            x = int(rng.integers(1, 5)) * (1 if rng.integers(2) else -1)
            if not word or word[-1] != -x:
                word.append(x)
        # r_hat is linear in the perturbation: rescale it into [0.1, 0.5]
        r_raw = T.perturbed_holonomy(rep, raw, word).r_hat
        scale = rng.uniform(0.1, 0.5) / r_raw if length else 1.0
        pert = {k: scale * b for k, b in raw.items()}
        out = T.perturbed_holonomy(rep, pert, word)
        want = _expm_perturbed_holonomy(rep, pert, word)
        err = np.linalg.norm(out.value - want, 2)
        assert err <= 1e-13 * (1 + np.linalg.norm(want, 2)), (word, err)
        assert err <= out.remainder_bound, (word, err, out.remainder_bound)


def test_series_concatenation_rule():
    # V_n(uv) = sum over i + j = n of V_j(v) hol(v) V_i(u) hol(v)^-1
    spec = G.GroupSpec("U_pq", 2, 2, 0)
    rng = np.random.default_rng(29)
    rep = S.sample_representation(spec, 2, rng)
    pert = {k + 1: 0.2 * G.random_algebra_element(spec, rng) for k in range(4)}
    u = [1, -2, 3]
    v = [4, 2, -1]
    out_u = T.perturbed_holonomy(rep, pert, u)
    out_v = T.perturbed_holonomy(rep, pert, v)
    out_uv = T.perturbed_holonomy(rep, pert, u + v)
    hv = S.holonomy(rep, v)
    hv_inv = np.linalg.inv(hv)
    for n in range(5):
        want = sum(out_v.series[n - i] @ hv @ out_u.series[i] @ hv_inv
                   for i in range(n + 1))
        assert np.linalg.norm(out_uv.series[n] - want) < 1e-12
    # and the values themselves compose
    assert np.linalg.norm(out_uv.value - out_v.value @ out_u.value) < 1e-7


def test_term_ratio_on_scalar_profile_family():
    # A = p(t) M with p > 0 makes T_k = (int p)^k M^k / k!, so consecutive
    # norms contract at least as fast as rho / (k + 1), rho = int |A|_2
    rng = np.random.default_rng(41)
    m = rng.normal(size=(2, 2))
    m = m + (0.3 + np.linalg.norm(m, 2)) * np.eye(2)
    c = 0.9

    def fn(t):
        return c * (1 + 0.3 * np.sin(2 * np.pi * t)) * m

    path = T.MatrixPath(fn, 2)
    res = T.picard_transport(path, n_max=10)
    norms = [np.linalg.norm(t, 2) for t in res.terms]
    rho = c * np.linalg.norm(m, 2)      # the profile averages to 1
    assert res.r_hat >= rho
    for k in range(10):
        if norms[k] < 1e-10:
            break
        assert norms[k + 1] / norms[k] <= rho / (k + 1) + 1e-6
