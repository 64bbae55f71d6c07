import numpy as np
import pytest
from scipy.linalg import expm

from loopbracket import groups as G

SPECS = [
    G.GroupSpec("GL_R", 2),
    G.GroupSpec("GL_C", 2),
    G.GroupSpec("O_pq", 2, 2, 0),
    G.GroupSpec("O_pq", 2, 1, 1),
    G.GroupSpec("O_pq", 3, 1, 2),
    G.GroupSpec("O_C", 3),
    G.GroupSpec("U_pq", 2, 2, 0),
    G.GroupSpec("U_pq", 2, 1, 1),
    G.GroupSpec("Sp_R", 2),
    G.GroupSpec("Sp_R", 4),
    G.GroupSpec("Sp_pq", 1, 1, 0),
    G.GroupSpec("Sp_pq", 2, 1, 1),
]


def f_hat(spec, g, xs=(), r=1.0):
    """Decorated trace fhat(g; x_1..x_k) = r Re tr(g x_1 .. x_k)."""
    acc = np.asarray(g, dtype=complex)
    for x in xs:
        acc = acc @ x
    return r * float(np.trace(acc).real)


DIMS = {
    ("GL_R", 2, 0, 0): 4,
    ("GL_C", 2, 0, 0): 8,
    ("O_pq", 2, 2, 0): 1,
    ("O_pq", 2, 1, 1): 1,
    ("O_pq", 3, 1, 2): 3,
    ("O_C", 3, 0, 0): 6,
    ("U_pq", 2, 2, 0): 4,
    ("U_pq", 2, 1, 1): 4,
    ("Sp_R", 2, 0, 0): 3,
    ("Sp_R", 4, 0, 0): 10,
    ("Sp_pq", 1, 1, 0): 3,
    ("Sp_pq", 2, 1, 1): 10,
}


def rot(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]], dtype=complex)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_basis_dimension_and_residuals(spec):
    basis = G.algebra_basis(spec)
    assert len(basis) == DIMS[(spec.kind, spec.n, spec.p, spec.q)]
    for x in basis:
        assert G.algebra_residual(spec, x) < 1e-12
    # linear independence over R
    vecs = np.array([np.r_[b.real.ravel(), b.imag.ravel()] for b in basis])
    assert np.linalg.matrix_rank(vecs) == len(basis)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_random_elements_belong(spec):
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = G.random_algebra_element(spec, rng)
        assert G.algebra_residual(spec, x) < 1e-12
        g = G.random_element(spec, rng)
        assert G.membership_residual(spec, g) < 1e-9


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_variation_matches_finite_differences(spec):
    rng = np.random.default_rng(11)
    h = 1e-4
    for _ in range(5):
        g = G.random_element(spec, rng)
        fg = G.variation(spec, g)
        assert G.algebra_residual(spec, fg) < 1e-9
        for _ in range(3):
            x = G.random_algebra_element(spec, rng)
            fd = (G.invariant_f(spec, g @ expm(h * x))
                  - G.invariant_f(spec, g @ expm(-h * x))) / (2 * h)
            assert abs(G.pairing(fg, x) - fd) < 1e-5


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_variation_generic_agrees_with_closed_form(spec):
    rng = np.random.default_rng(13)
    for _ in range(5):
        g = G.random_element(spec, rng)
        assert np.linalg.norm(G.variation(spec, g) - G.project_to_algebra(spec, g)) < 1e-9


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_pairing_orthonormal_basis(spec):
    basis, signs = G.pairing_orthonormal_basis(spec)
    assert len(basis) == G.algebra_dim(spec)
    for i, u in enumerate(basis):
        assert G.algebra_residual(spec, u) < 1e-8
        for j, v in enumerate(basis):
            want = signs[i] if i == j else 0.0
            assert abs(G.pairing(u, v) - want) < 1e-8
    # projection is the identity on the algebra
    rng = np.random.default_rng(3)
    x = G.random_algebra_element(spec, rng)
    assert np.linalg.norm(G.project_to_algebra(spec, x) - x) < 1e-9


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_variation_hat_chain_rule(spec):
    rng = np.random.default_rng(17)
    g = G.random_element(spec, rng)
    xs = [G.random_algebra_element(spec, rng) for _ in range(3)]
    y = G.random_algebra_element(spec, rng)
    for k in range(4):
        fh = G.variation(spec, g, xs[:k])
        assert G.algebra_residual(spec, fh) < 1e-9
        lhs = G.pairing(fh, y)
        rhs = f_hat(spec, g, xs[:k] + [y])
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_f_hat_mixed_finite_differences(spec):
    # fhat(g; x1, x2) is the mixed second derivative of f(g e^{t1 x1} e^{t2 x2})
    rng = np.random.default_rng(19)
    g = G.random_element(spec, rng)
    x1 = G.random_algebra_element(spec, rng)
    x2 = G.random_algebra_element(spec, rng)
    h = 1e-4

    def f(t1, t2):
        return G.invariant_f(spec, g @ expm(t1 * x1) @ expm(t2 * x2))

    fd1 = (f(h, 0) - f(-h, 0)) / (2 * h)
    assert abs(f_hat(spec, g, [x1]) - fd1) < 1e-5
    fd2 = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h)
    assert abs(f_hat(spec, g, [x1, x2]) - fd2) < 1e-4


def test_f_of_inverse_equals_f_on_form_kinds():
    rng = np.random.default_rng(23)
    for spec in SPECS:
        if spec.kind in ("GL_R", "GL_C"):
            continue
        g = G.random_element(spec, rng)
        assert abs(G.invariant_f(spec, g) - G.invariant_f(spec, np.linalg.inv(g))) < 1e-10


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_pairing_identity_for_variations(spec):
    # <F(A), F(B)> = (f(AB) - f(AB^-1)) / 2 on the form kinds; = f(AB) on GL
    rng = np.random.default_rng(29)
    for _ in range(5):
        a = G.random_element(spec, rng)
        b = G.random_element(spec, rng)
        lhs = G.pairing(G.variation(spec, a), G.variation(spec, b))
        if spec.kind in ("GL_R", "GL_C"):
            rhs = G.invariant_f(spec, a @ b)
        else:
            rhs = (G.invariant_f(spec, a @ b)
                   - G.invariant_f(spec, a @ np.linalg.inv(b))) / 2
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


def test_o2_rotation_closed_forms():
    # hand-computed: for A = rot(s), B = rot(t),
    # F(A) = [[0, -sin s], [sin s, 0]] and <F(A), F(B)> = -2 sin s sin t
    spec = G.GroupSpec("O_pq", 2, 2, 0)
    s, t = 0.7, 0.3
    fa = G.variation(spec, rot(s))
    assert np.allclose(fa, np.array([[0, -np.sin(s)], [np.sin(s), 0]]), atol=1e-14)
    got = G.pairing(G.variation(spec, rot(s)), G.variation(spec, rot(t)))
    assert abs(got - (-2 * np.sin(s) * np.sin(t))) < 1e-14
    # and the trace route: (f(AB) - f(AB^-1))/2 = cos(s+t) - cos(s-t)
    trace_route = (2 * np.cos(s + t) - 2 * np.cos(s - t)) / 2
    assert abs(got - trace_route) < 1e-14


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _bound(a):
    # the sampler's range is |A|_1 <= 2; larger norms need more squarings
    return 1e-13 if np.abs(a).sum(axis=-2).max() <= 2 else 1e-11


@pytest.mark.parametrize("spec", SPECS + [G.GroupSpec("GL_C", 3)], ids=str)
def test_expm_matches_scipy_on_algebra_elements(spec):
    rng = np.random.default_rng(47)
    for scale in (0.05, 0.5, 1.0, 2.0, 5.0):
        for _ in range(4):
            x = G.random_algebra_element(spec, rng, scale)
            assert _rel_err(G.expm(x), expm(x)) <= _bound(x), scale


@pytest.mark.parametrize("degree", sorted(G._PADE))
def test_expm_each_pade_branch(degree):
    # 1-norms just below theta_m select degree m with no scaling
    theta = G._PADE[degree][0]
    rng = np.random.default_rng(degree)
    for d, cplx in ((2, False), (3, True), (4, True)):
        a = rng.standard_normal((d, d)) + cplx * 1j * rng.standard_normal((d, d))
        a *= theta * (1 - 1e-9) / np.abs(a).sum(axis=0).max()
        assert _rel_err(G.expm(a), expm(a)) <= _bound(a)


def test_expm_scaling_branch():
    rng = np.random.default_rng(53)
    for norm in (6.0, 9.5, 13.0, 20.0):
        for d in (2, 3, 5):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a *= norm / np.abs(a).sum(axis=0).max()
            assert _rel_err(G.expm(a), expm(a)) <= 1e-11, (norm, d)


def test_expm_stack_equals_slices_bit_for_bit():
    # slices of one 1-norm share the degree and scaling a lone call picks
    rng = np.random.default_rng(59)
    for norm in (0.01, 0.1, 0.5, 1.5, 4.0, 12.0):
        a = rng.standard_normal((3, 2, 3, 3)) + 1j * rng.standard_normal((3, 2, 3, 3))
        a *= norm / np.abs(a).sum(axis=-2).max(axis=-1)[..., None, None]
        got = G.expm(a)
        assert got.shape == a.shape
        for idx in np.ndindex(3, 2):
            assert np.array_equal(got[idx], G.expm(a[idx])), (norm, idx)
            assert _rel_err(got[idx], expm(a[idx])) <= _bound(a[idx])
    assert np.array_equal(G.expm(np.zeros((2, 2))), np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
def test_expm_non_finite_input_gives_non_finite_output(bad):
    a = np.array([[bad, 1.0], [0.5, -1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        single = G.expm(a)
        stack = G.expm(np.stack([np.eye(2), a]))
    assert not np.isfinite(single).all()
    assert not np.isfinite(stack[1]).all()


def test_spec_validation():
    with pytest.raises(G.GroupError):
        G.GroupSpec("GL_H", 2)
    with pytest.raises(G.GroupError):
        G.GroupSpec("O_pq", 2, 2, 1)
    with pytest.raises(G.GroupError):
        G.GroupSpec("Sp_R", 3)
    with pytest.raises(G.GroupError):
        G.GroupSpec("GL_R", 2, 1, 0)
    assert G.GroupSpec("Sp_pq", 2, 1, 1).matrix_dim == 4
    # the algebra basis of GL(n,C) has 2 n^4 entries: n = 53 is the largest
    # n within MAX_ENTRIES = 2^24, and a spec is built without allocating it
    assert G.algebra_dim(G.GroupSpec("GL_C", 53)) == 2 * 53 ** 2
    with pytest.raises(G.GroupError, match="too large"):
        G.GroupSpec("GL_C", 54)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_central_difference_is_exact_on_low_degree_polynomials(k):
    # the stencil sums prod(s) f(s h) over s in {+1, -1}^k: a monomial
    # t^a survives only if every a_i is odd, so every polynomial of total
    # degree <= k + 1 (a cubic at k = 2) gives its t_1 .. t_k coefficient
    from itertools import product

    from loopbracket.verify import central_difference

    rng = np.random.default_rng(k)
    monomials = [a for a in product(range(k + 2), repeat=k) if sum(a) <= k + 1]
    coef = dict(zip(monomials, rng.normal(size=len(monomials))))

    def poly(*t):
        return sum(c * np.prod(np.power(t, a)) for a, c in coef.items())

    for h in (0.5, 1e-2):
        got = central_difference(poly, k, h)
        assert abs(got - coef[(1,) * k]) <= 1e-13 / (2 * h) ** k, (h, got)
