"""Cyclic DGLA axioms, moment map, gauge fields, and MC solving."""

import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from loopbracket import dgla as D
from loopbracket import groups as G
from test_groups import SPECS

GL2R = G.GroupSpec("GL_R", 2)


def naive_mc(dgla, x):
    out = np.array(dgla.d_oe @ x, dtype=float)
    d1 = dgla.dims[1]
    for a in range(d1):
        for b in range(d1):
            out = out + 0.5 * x[a] * x[b] * dgla.b11[:, a, b]
    return out


def naive_gauge(dgla, a, x):
    d0, d1 = dgla.dims
    out = -np.array(dgla.d_eo @ a, dtype=float)
    for i in range(d0):
        for b in range(d1):
            out = out + a[i] * x[b] * dgla.b01[:, i, b]
    return out


def moment_covector(dgla, x):
    return dgla.w00.T @ D.mc_residual(dgla, x)


def abelian_instance(d0, d1):
    """Zero bracket, zero differential, standard pairings."""
    if d1 % 2:
        raise D.DglaError("odd part needs even dimension for a symplectic form")
    h = d1 // 2
    w11 = np.zeros((d1, d1))
    w11[:h, h:] = np.eye(h)
    w11[h:, :h] = -np.eye(h)
    return D.CyclicDgla(np.zeros((d0, d0, d0)), np.zeros((d1, d0, d1)),
                        np.zeros((d0, d1, d1)), np.zeros((d1, d0)),
                        np.zeros((d0, d1)), np.eye(d0), w11)


def corrupt(dgla, tensor, index, delta):
    """Copy with one structure entry shifted, for fault injection."""
    arr = getattr(dgla, tensor).copy()
    arr[index] += delta
    return replace(dgla, **{tensor: arr})


def test_abelian_instance_all_residuals_zero():
    dgla = abelian_instance(3, 4)
    rep = D.axioms_residual(dgla)
    for key, val in rep.items():
        if key.startswith("sigma"):
            assert val == 1.0
        else:
            assert val == 0.0
    assert D.axioms_pass(rep)


def test_minimal_instance_passes_axioms():
    dgla = D.minimal_differential_instance()
    rep = D.axioms_residual(dgla)
    assert D.axioms_pass(rep)
    assert rep["d_squared"] == 0.0


def test_minimal_instance_frozen_moment_numbers():
    dgla = D.minimal_differential_instance()
    x = np.array([1.0, 2.0])
    v = np.array([3.0, -1.0])
    a = np.array([2.0, 1.0])
    assert D.moment(dgla, x, a) == -6.0
    assert moment_covector(dgla, x) @ a == -6.0
    h = 1e-4
    fd = (D.moment(dgla, x + h * v, a) - D.moment(dgla, x - h * v, a)) / (2 * h)
    lhs = D.omega(dgla, 1, D.gauge_field(dgla, a, x), v)
    assert abs(lhs - 3.0) < 1e-12
    assert abs(fd - lhs) < 1e-9


@pytest.mark.parametrize("spec", [
    GL2R,
    G.GroupSpec("GL_C", 2),
    G.GroupSpec("U_pq", 2, 2, 0),
    G.GroupSpec("Sp_R", 2),
    G.GroupSpec("O_pq", 2, 1, 1),
    G.GroupSpec("O_C", 3),
    G.GroupSpec("Sp_pq", 2, 1, 1),
])
def test_toy_instance_axioms(spec):
    dgla = D.surface_toy_instance(1, spec)
    m = G.algebra_dim(spec)
    assert dgla.dims == (2 * m, 2 * m)
    rep = D.axioms_residual(dgla)
    assert D.axioms_pass(rep, tol=1e-12), rep
    assert rep["sigma_min_even"] >= 1 - 1e-12
    assert rep["sigma_min_odd"] >= 1 - 1e-12


@pytest.mark.parametrize("spec", SPECS + [G.GroupSpec("GL_C", 3)], ids=str)
def test_structure_constants_match_naive_loops(spec):
    basis, signs = G.pairing_orthonormal_basis(spec)
    c = D.structure_constants(spec)
    m = len(basis)
    assert c.shape == (m, m, m)
    for i in range(m):
        for j in range(m):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            want = [s * G.pairing(comm, u) for u, s in zip(basis, signs)]
            assert np.max(np.abs(c[:, i, j] - want)) < 1e-12
            # the algebra is closed under [, ], so c[:, i, j] rebuilds it
            rebuilt = sum(ck * u for ck, u in zip(c[:, i, j], basis))
            assert np.linalg.norm(rebuilt - comm) < 1e-12


def test_toy_instance_dimensions_scale_with_genus():
    one = G.GroupSpec("GL_R", 1)
    assert D.surface_toy_instance(1, one).dims == (2, 2)
    assert D.surface_toy_instance(2, one).dims == (2, 4)
    assert D.surface_toy_instance(1, GL2R).dims == (8, 8)
    # rank-one algebra is abelian, so every bracket tensor vanishes
    small = D.surface_toy_instance(1, one)
    assert np.all(small.b11 == 0) and np.all(small.b00 == 0)
    # a nonabelian algebra leaves a genuinely nonzero bracket
    assert np.max(np.abs(D.surface_toy_instance(1, GL2R).b11)) > 0.5


def test_mc_gauge_moment_match_naive_loops():
    dgla = D.surface_toy_instance(1, GL2R)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.normal(size=dgla.dims[1])
        a = rng.normal(size=dgla.dims[0])
        assert np.allclose(D.mc_residual(dgla, x), naive_mc(dgla, x),
                           atol=1e-12)
        assert np.allclose(D.gauge_field(dgla, a, x), naive_gauge(dgla, a, x),
                           atol=1e-12)
        want = naive_mc(dgla, x) @ dgla.w00 @ a
        assert abs(D.moment(dgla, x, a) - want) < 1e-12


def test_moment_differential_identity_fd():
    dgla = D.surface_toy_instance(1, GL2R)
    rng = np.random.default_rng(6)
    h = 1e-4
    for _ in range(20):
        x = rng.normal(size=dgla.dims[1])
        v = rng.normal(size=dgla.dims[1])
        a = rng.normal(size=dgla.dims[0])
        fd = (D.moment(dgla, x + h * v, a)
              - D.moment(dgla, x - h * v, a)) / (2 * h)
        # moment is quadratic in x, so the centered difference is exact
        assert abs(fd - D.omega(dgla, 1, D.gauge_field(dgla, a, x), v)) < 1e-9


def test_gauge_tangency_identity_everywhere():
    # d(xi_a(x)) + [x, xi_a(x)] = [a, mc(x)] holds at arbitrary x
    for dgla in (D.surface_toy_instance(2, GL2R),
                 D.minimal_differential_instance()):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.normal(size=dgla.dims[1])
            a = rng.normal(size=dgla.dims[0])
            xi = D.gauge_field(dgla, a, x)
            lhs = D.linearized_mc(dgla, x) @ xi
            rhs = D.bracket(dgla, 0, a, 0, D.mc_residual(dgla, x))
            assert np.linalg.norm(lhs - rhs) < 1e-12


def test_newton_finds_mc_points_and_tangency_there():
    dgla = D.surface_toy_instance(1, GL2R)
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(5):
        res = D.mc_solve(dgla, rng)
        assert res.converged, res.residual
        assert res.residual <= 1e-12
        found += 1
        a = rng.normal(size=dgla.dims[0])
        xi = D.gauge_field(dgla, a, res.x)
        assert np.linalg.norm(D.linearized_mc(dgla, res.x) @ xi) < 1e-8
    assert found == 5


def test_mc_solve_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(D, "_MC_MAX_ITER", 0)
    dgla = D.surface_toy_instance(1, GL2R)
    rng = np.random.default_rng(3)
    res = D.mc_solve(dgla, rng)
    assert not res.converged
    assert res.residual > 0


def test_toy_mc_locus_is_commuting_sum():
    # x = alpha ox p + beta ox q with [p, q] = 0 solves MC exactly
    dgla = D.surface_toy_instance(1, GL2R)
    rng = np.random.default_rng(13)
    p = rng.normal(size=4)
    x = np.concatenate([p, 2.5 * p])
    assert np.linalg.norm(D.mc_residual(dgla, x)) < 1e-13
    # generic coefficients do not
    y = rng.normal(size=8)
    assert np.linalg.norm(D.mc_residual(dgla, y)) > 1e-3


def test_gauge_is_bracket_homomorphism():
    dgla = D.surface_toy_instance(1, GL2R)
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.normal(size=dgla.dims[1])
        a = rng.normal(size=dgla.dims[0])
        b = rng.normal(size=dgla.dims[0])
        ab = D.bracket(dgla, 0, a, 0, b)
        lhs = D.gauge_field(dgla, ab, x)
        rhs = (D.bracket(dgla, 0, a, 1, D.gauge_field(dgla, b, x))
               - D.bracket(dgla, 0, b, 1, D.gauge_field(dgla, a, x)))
        assert np.linalg.norm(lhs - rhs) < 1e-10


def test_gauge_linear_part_preserves_pairing():
    dgla = D.surface_toy_instance(1, GL2R)
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = rng.normal(size=dgla.dims[0])
        u = rng.normal(size=dgla.dims[1])
        v = rng.normal(size=dgla.dims[1])
        s = (D.omega(dgla, 1, D.bracket(dgla, 0, a, 1, u), v)
             + D.omega(dgla, 1, u, D.bracket(dgla, 0, a, 1, v)))
        assert abs(s) < 1e-12


def twisted(dgla, x):
    """dgla with d = [x, .], a differential and a derivation if [x, x] = 0."""
    d_eo, d_oe = (np.array([D.bracket(dgla, 1, x, q, e) for e in np.eye(n)]).T
                  for q, n in zip((0, 1), dgla.dims))
    return replace(dgla, d_eo=d_eo, d_oe=d_oe)


def mc_point(d1, first, second, p):
    """x = u_first p + u_second 2.5 p over odd classes u with u u = 0,
    so that [x, x] = 0."""
    m = len(p)
    x = np.zeros(d1)
    x[first * m:(first + 1) * m], x[second * m:(second + 1) * m] = p, 2.5 * p
    return x


def exterior_instance(spec, k=4):
    """Lambda(theta_1..theta_k) tensor the algebra of spec, for even k,
    graded by form degree mod 2, with d = 0 and omega(a x, b y) =
    int(a b) <x, y>, int reading the theta_1..theta_k coefficient.  Unlike
    H*(Sigma_g), three odd classes can have a nonzero product."""
    forms = [frozenset(c) for r in range(k + 1) for c in combinations(range(k), r)]
    even, odd = ([s for s in forms if len(s) % 2 == p] for p in (0, 1))

    def wedge(out, left, right):  # the product tensor (out, left, right)
        t = np.zeros((len(out), len(left), len(right)))
        for i, s in enumerate(left):
            for j, u in enumerate(right):
                if not s & u and s | u in out:
                    t[out.index(s | u), i, j] = (-1) ** sum(
                        a > b for a in s for b in u)
        return t

    c = D.structure_constants(spec)
    sig = np.diag(G.pairing_orthonormal_basis(spec)[1])
    top, m = [frozenset(range(k))], len(sig)
    return D.CyclicDgla(
        np.kron(wedge(even, even, even), c), np.kron(wedge(odd, even, odd), c),
        np.kron(wedge(even, odd, odd), c), np.zeros((len(odd) * m, len(even) * m)),
        np.zeros((len(even) * m, len(odd) * m)),
        np.kron(wedge(top, even, even)[0], sig), np.kron(wedge(top, odd, odd)[0], sig))


def assert_negated_differential_breaks(dgla):
    for block in ("d_eo", "d_oe"):
        rep = D.axioms_residual(replace(dgla, **{block: -getattr(dgla, block)}))
        assert rep["leibniz"] > 1e-3 and rep["d_pairing"] > 1e-3, (block, rep)


@pytest.mark.parametrize("genus", [1, 2])
@pytest.mark.parametrize("spec", [
    GL2R, G.GroupSpec("U_pq", 2, 1, 1), G.GroupSpec("Sp_pq", 2, 1, 1),
    G.GroupSpec("O_pq", 3, 2, 1)], ids=str)
def test_twisted_toy_pins_leibniz_and_d_pairing_signs(spec, genus):
    # the toy with d = [x, .] at x = alpha_1 p + beta_1 2.5 p: both its
    # bracket and its differential are nonzero
    toy = D.surface_toy_instance(genus, spec)
    p = np.random.default_rng(0).normal(size=G.algebra_dim(spec))
    dgla = twisted(toy, mc_point(toy.dims[1], 0, genus, p))
    assert np.max(np.abs(dgla.d_eo)) > 0.5 and np.max(np.abs(dgla.d_oe)) > 0.5
    assert D.axioms_pass(D.axioms_residual(dgla), tol=1e-12)
    assert_negated_differential_breaks(dgla)


def test_twisted_exterior_instance_pins_odd_jacobi_and_leibniz_signs():
    # in H*(Sigma_g) tensor g, [odd, [odd, odd]] and [odd, d odd] vanish,
    # so the signs (-1)^{|x||z|} of Jacobi and (-1)^{|x|} of Leibniz, -1
    # only there, go unchecked; in Lambda(theta_1..theta_4) they do not
    spec = G.GroupSpec("O_pq", 3, 2, 1)
    plain = exterior_instance(spec)
    odd3 = np.einsum("wua,ubc->wabc", plain.b01, plain.b11)
    assert np.max(np.abs(odd3)) > 0.1
    p = np.random.default_rng(0).normal(size=G.algebra_dim(spec))
    dgla = twisted(plain, mc_point(plain.dims[1], 0, 1, p))
    for inst in (plain, dgla):
        assert D.axioms_pass(D.axioms_residual(inst), tol=1e-12)
    assert_negated_differential_breaks(dgla)


def test_corrupted_bracket_breaks_axioms():
    broken = corrupt(D.minimal_differential_instance(),
                     "b01", (1, 0, 0), 0.5)
    assert D.axioms_residual(broken)["leibniz"] > 0.1
    toy = D.surface_toy_instance(1, GL2R)
    broken = corrupt(toy, "b11", (4, 0, 4), 0.5)
    rep = D.axioms_residual(broken)
    assert max(rep["jacobi"], rep["cyclicity"],
               rep["bracket_antisymmetry"]) > 0.1
    assert not D.axioms_pass(rep)


def overflowing_toy():
    """The GL(2,R) genus-1 toy without b00 and with b01, b11 scaled by
    1e160: not a DGLA, and its Jacobi sums overflow to inf - inf."""
    toy = D.surface_toy_instance(1, GL2R)
    return replace(toy, b00=0 * toy.b00, b01=1e160 * toy.b01, b11=1e160 * toy.b11)


def test_overflowing_jacobi_residual_is_nan_and_fails():
    toy = D.surface_toy_instance(1, GL2R)
    assert D.axioms_residual(replace(toy, b00=0 * toy.b00))["jacobi"] > 1  # not a DGLA
    with np.errstate(over="ignore", invalid="ignore"):
        report = D.axioms_residual(overflowing_toy())
    assert np.isnan(report["jacobi"])
    assert not D.axioms_pass(report)
    clean = D.axioms_residual(toy)
    for key in ("leibniz", "d_squared"):
        assert not D.axioms_pass({**clean, key: float("nan")})


def test_jacobi_battery_memory_is_one_output_slice_at_a_time():
    # the GL(2,C) genus-3 toy has 48 odd and 16 even dimensions: one dense
    # 4-index odd Jacobi block alone is 48^4 doubles, 42 MB
    inst = D.surface_toy_instance(3, G.GroupSpec("GL_C", 2))
    tracemalloc.start()
    try:
        D.axioms_residual(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_shape_validation():
    with pytest.raises(D.DglaError):
        D.CyclicDgla(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)),
                     np.zeros((2, 2, 2)), np.zeros((3, 2)),  # bad d_eo
                     np.zeros((2, 2)), np.eye(2), np.eye(2))
    with pytest.raises(D.DglaError):
        abelian_instance(2, 3)
    with pytest.raises(D.DglaError):
        D.surface_toy_instance(0, GL2R)
