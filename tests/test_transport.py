"""Transport series against closed forms, RK4, and its own error certificate."""

import math
from math import factorial

import mpmath
import numpy as np
import pytest
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
    res = T.picard_transport(path, n_max=6, n_steps=50)
    # N^2 = 0 kills every term past the first; trapezoid is exact on them
    assert np.allclose(res.transport, np.eye(2) + n, atol=1e-14)
    for k in range(2, 7):
        assert np.linalg.norm(res.terms[k]) < 1e-14
    assert abs(res.r_hat - 1.0) < 1e-12


def test_two_piece_path_matches_expm_product():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 2)) * 0.6
    y = rng.normal(size=(2, 2)) * 0.6
    path = T.MatrixPath.piecewise_constant([x, y])
    res = T.picard_transport(path, n_max=12, n_steps=2000)
    # second piece acts later, so its factor sits on the left
    want = expm(y / 2) @ expm(x / 2)
    # trapezoid floor at this step count, not series truncation
    assert np.linalg.norm(res.transport - want) < 5e-8
    assert np.linalg.norm(T.rk4_transport(path, 2000) - want) < 1e-10


def test_commuting_profile_matches_expm():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(2, 2)) * 0.15
    path = T.MatrixPath(lambda t: (1 + t * t) * m, 2)
    want = expm((4.0 / 3.0) * m)
    res = T.picard_transport(path, n_max=12, n_steps=2000)
    assert res.r_hat < 1.0
    assert np.linalg.norm(res.transport - want) < 5e-8
    assert np.linalg.norm(T.rk4_transport(path, 2000) - want) < 1e-10


def test_term_norms_obey_factorial_bound():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        path = _smooth_path(rng, amp=0.05)
        res = T.picard_transport(path, n_max=12, n_steps=500)
        for k, term in enumerate(res.terms):
            bound = res.r_hat ** k / factorial(k)
            assert np.linalg.norm(term, 2) <= bound * (1 + 1e-6) + 1e-12


def test_remainder_certificate_covers_rk4_gap():
    for seed in range(4):
        rng = np.random.default_rng(seed + 100)
        path = _smooth_path(rng)
        res = T.picard_transport(path, n_max=12, n_steps=2000)
        gap = np.linalg.norm(res.transport - T.rk4_transport(path, 2000))
        assert gap <= res.remainder_bound + 1e-7


def test_sign_flag_inverts_constant_transport():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(2, 2)) * 0.4
    path = T.MatrixPath(lambda t: m, 2)
    plus = T.picard_transport(path, n_max=14, sign=1).transport
    minus = T.picard_transport(path, n_max=14, sign=-1).transport
    assert np.linalg.norm(plus @ minus - np.eye(2)) < 1e-8
    assert np.linalg.norm(minus - expm(-m)) < 1e-7
    assert np.linalg.norm(T.rk4_transport(path, 500, sign=-1) - expm(-m)) < 1e-9


def test_concat_composes_transports():
    rng = np.random.default_rng(21)
    p1 = _smooth_path(rng, amp=0.05)
    p2 = _smooth_path(rng, amp=0.05)
    cat = T.MatrixPath.concat(p1, p2)
    r1 = T.picard_transport(p1, n_max=12, n_steps=1000).transport
    r2 = T.picard_transport(p2, n_max=12, n_steps=1000).transport
    rc = T.picard_transport(cat, n_max=12, n_steps=2000).transport
    assert np.linalg.norm(rc - r2 @ r1) < 1e-8
    want = T.rk4_transport(p2, 1000) @ T.rk4_transport(p1, 1000)
    assert np.linalg.norm(T.rk4_transport(cat, 2000) - want) < 1e-10


def test_tail_bound_frozen_values():
    # r = 1, n = 2: e - 1 - 1 - 1/2
    assert abs(T.series_tail_bound(1.0, 2) - (np.e - 2.5)) < 1e-14
    assert T.series_tail_bound(0.0, 5) == 0.0
    assert T.series_tail_bound(2.0, 12) < T.series_tail_bound(2.0, 6)


@pytest.mark.parametrize("r_hat", [300.0, 500.0, 700.0])
def test_tail_bound_past_the_peak_term(r_hat):
    # terms r^k / k! still grow for k < r: the sum must run past them
    got = T.series_tail_bound(r_hat, 12)
    with mpmath.workdps(40):
        r = mpmath.mpf(r_hat)
        want = mpmath.exp(r) - mpmath.fsum(r ** k / mpmath.factorial(k)
                                           for k in range(13))
        assert abs(mpmath.mpf(got) / want - 1) < 1e-12


def test_tail_bound_overflow_is_inf():
    assert T.series_tail_bound(800.0, 12) == math.inf
    assert T.series_tail_bound(1e30, 12) == math.inf


# --- perturbed holonomy ---


def _rep_and_pert(kind, genus, seed, scale):
    spec = G.GroupSpec(kind, 2)
    rng = np.random.default_rng(seed)
    rep = S.sample_representation(spec, genus, rng)
    pert = {k + 1: scale * G.random_algebra_element(spec, rng)
            for k in range(2 * genus)}
    return rep, pert


def test_zero_perturbation_reproduces_holonomy_exactly():
    rep, _ = _rep_and_pert("GL_R", 2, 5, 0.0)
    d = rep.spec.matrix_dim
    pert = {k: np.zeros((d, d)) for k in range(1, 5)}
    word = [1, 2, -1, 3]
    out = T.perturbed_holonomy(rep, pert, word, n_max=6)
    assert np.array_equal(out.value, S.holonomy(rep, word))
    for k in range(1, 7):
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
    closed = T.expm_perturbed_holonomy(rep, pert, word)
    assert np.linalg.norm(out.value - rk4) <= out.remainder_bound + 1e-8
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
        want = T.expm_perturbed_holonomy(rep, pert, word)
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
    # norms contract at least as fast as r_hat / (k + 1)
    rng = np.random.default_rng(41)
    m = rng.normal(size=(2, 2))
    m = m + (0.3 + np.linalg.norm(m, 2)) * np.eye(2)
    c = 0.9

    def fn(t):
        return c * (1 + 0.3 * np.sin(2 * np.pi * t)) * m

    path = T.MatrixPath(fn, 2)
    res = T.picard_transport(path, n_max=10, n_steps=2000)
    norms = [np.linalg.norm(t, 2) for t in res.terms]
    for k in range(10):
        if norms[k] < 1e-10:
            break
        assert norms[k + 1] / norms[k] <= res.r_hat / (k + 1) + 1e-6
