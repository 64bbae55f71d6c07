import doctest
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopbracket import groups as G
from loopbracket import serialize as Z
from loopbracket import surface as S
from loopbracket import words as W

GL2R = G.GroupSpec("GL_R", 2)
GL2C = G.GroupSpec("GL_C", 2)
O2 = G.GroupSpec("O_pq", 2, 2, 0)
O11 = G.GroupSpec("O_pq", 2, 1, 1)
U2 = G.GroupSpec("U_pq", 2, 2, 0)
SP2 = G.GroupSpec("Sp_R", 2)

letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
words = st.lists(letters, max_size=10)


def homotopy_variants(word, genus, rng, count):
    """Words in the same free homotopy class on the closed surface.

    Random compositions of cyclic rotation, conjugation, cancelling-pair
    insertion, and insertion of a conjugated surface relator.
    """
    rel = W.relator(genus)
    out = []
    for _ in range(count):
        w = list(word)
        for _ in range(int(rng.integers(1, 4))):
            move = int(rng.integers(0, 4))
            if move == 0 and w:
                k = int(rng.integers(0, len(w)))
                w = w[k:] + w[:k]
            elif move == 1:
                c = int(rng.integers(1, 2 * genus + 1))
                if rng.integers(0, 2):
                    c = -c
                w = [c] + w + [-c]
            elif move == 2:
                x = int(rng.integers(1, 2 * genus + 1))
                if rng.integers(0, 2):
                    x = -x
                k = int(rng.integers(0, len(w) + 1))
                w = w[:k] + [x, -x] + w[k:]
            else:
                r = list(rel) if rng.integers(0, 2) else W.inverse_word(rel)
                c = int(rng.integers(1, 2 * genus + 1))
                k = int(rng.integers(0, len(w) + 1))
                w = w[:k] + [c] + r + [-c] + w[k:]
        out.append(w)
    return out


def test_words_doctests():
    # the module docstring's examples are part of its contract
    result = doctest.testmod(W)
    assert result.attempted >= 4 and result.failed == 0, result


def test_word_round_trip():
    w = [1, 2, -1, -2, 3, -4]
    assert W.parse_word(W.format_word(w)) == w
    assert W.parse_word("a1 b2 A10") == [1, 4, -19]
    with pytest.raises(W.WordError):
        W.parse_word("c1")
    with pytest.raises(W.WordError):
        W.parse_word("a0")


@given(words)
def test_free_reduce_is_reduced(w):
    r = W.free_reduce(w)
    assert all(r[i] != -r[i + 1] for i in range(len(r) - 1))


@given(words)
def test_cyclic_reduce_is_cyclically_reduced(w):
    r = W.cyclic_reduce(w)
    assert all(r[i] != -r[i + 1] for i in range(len(r) - 1))
    if len(r) >= 2:
        assert r[0] != -r[-1]


@given(words)
def test_canonical_cyclic_rotation_invariant(w):
    c = W.canonical_cyclic(w)
    for k in range(1, max(len(w), 1)):
        assert W.canonical_cyclic(w[k:] + w[:k]) == c


@given(words, words)
def test_canonical_cyclic_respects_concat_cancel(u, v):
    # u v and v u are conjugate, hence share a canonical form
    assert W.canonical_cyclic(u + v) == W.canonical_cyclic(v + u)


def test_relator():
    assert W.relator(1) == [1, 2, -1, -2]
    assert W.relator(2) == [1, 2, -1, -2, 3, 4, -3, -4]


@settings(deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_word_inverse_cancels(seed):
    rng = np.random.default_rng(seed)
    w = list(rng.integers(1, 5, size=6) * np.where(rng.integers(0, 2, size=6), 1, -1))
    w = [int(x) for x in w]
    assert W.free_reduce(w + W.inverse_word(w)) == []


@pytest.mark.parametrize("spec", [GL2R, GL2C, O2, O11, U2, SP2], ids=str)
@pytest.mark.parametrize("genus", [1, 2])
def test_sample_representation_satisfies_relation(spec, genus):
    rng = np.random.default_rng(101)
    for _ in range(3):
        rep = S.sample_representation(spec, genus, rng)
        assert rep.genus == genus
        assert S.relator_residual(rep) < 1e-9
        for m in rep.images:
            assert G.membership_residual(spec, m) < 1e-9


def test_sample_representation_genus3():
    rng = np.random.default_rng(5)
    rep = S.sample_representation(GL2R, 3, rng)
    assert S.relator_residual(rep) < 1e-9


@pytest.mark.parametrize("spec,genus,seed", [
    (G.GroupSpec("O_pq", 3, 2, 1), 2, 30), (G.GroupSpec("O_pq", 3, 2, 1), 2, 211),
    (SP2, 3, 3), (SP2, 3, 189)],
    ids=["O(2,1)-g2-s30", "O(2,1)-g2-s211", "Sp(2,R)-g3-s3", "Sp(2,R)-g3-s189"])
def test_singular_line_search_iterate_starts_a_fresh_try(spec, genus, seed):
    # these seeds drive a Gauss-Newton line search onto a singular iterate
    # (and the O(2,1) ones through trial points that overflow, silently)
    rng = np.random.default_rng([seed, genus, 99])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = S.sample_representation(spec, genus, rng)
    assert S.relator_residual(rep) < 1e-11
    for m in rep.images:
        assert G.membership_residual(spec, m) < 1e-9


def test_pade_solve_failure_starts_a_fresh_try(monkeypatch):
    # a LinAlgError from the stacked line-search expm ends the try like a
    # singular iterate; once every try fails the sampler says so
    lone_expm = G.expm

    def failing_stack(a):
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return lone_expm(a)

    monkeypatch.setattr(G, "expm", failing_stack)
    with pytest.raises(W.RelatorError):
        S.sample_representation(GL2R, 2, np.random.default_rng(3))


@pytest.mark.parametrize("spec", [GL2C, O11, U2, SP2], ids=str)
def test_relator_jacobian_matches_columns_and_differences(spec):
    rng = np.random.default_rng(61)
    a, b, c = (G.random_element(spec, rng) for _ in range(3))
    basis = G.algebra_basis(spec)
    jac = S._relator_jacobian(a, b, c, basis)

    def res(am, bm):
        return np.linalg.inv(bm) @ np.linalg.inv(am) @ bm @ am @ c

    # reference: one column per basis element, as the loop used to build it
    ainv, binv = np.linalg.inv(a), np.linalg.inv(b)
    core = binv @ ainv @ b @ a
    cols = [-binv @ e @ ainv @ b @ a @ c + core @ e @ c for e in basis]
    cols += [-e @ core @ c + binv @ ainv @ b @ e @ a @ c for e in basis]
    want = np.array([np.r_[m.real.ravel(), m.imag.ravel()] for m in cols]).T
    assert np.allclose(jac, want, rtol=1e-13, atol=1e-13)
    h = 1e-6
    for k, e in enumerate(basis):
        for col, move in ((k, lambda t: (a @ G.expm(t * e), b)),
                          (len(basis) + k, lambda t: (a, b @ G.expm(t * e)))):
            fd = (res(*move(h)) - res(*move(-h))) / (2 * h)
            fd = np.r_[fd.real.ravel(), fd.imag.ravel()]
            assert np.allclose(jac[:, col], fd, rtol=1e-6, atol=1e-7), col


SURVEY_GROUPS = ("GL(2,R)", "GL(2,C)", "O(2,1)", "O(3,C)", "U(1,1)",
                 "Sp(2,R)", "Sp(1,1)")


@pytest.mark.parametrize("genus", [2, 3])
@pytest.mark.parametrize("group", SURVEY_GROUPS)
def test_sampler_survey(group, genus):
    # every seed gives a representation or a RelatorError, nothing else
    spec = Z.parse_group_string(group)
    for seed in range(20):
        rng = np.random.default_rng([seed, genus])
        try:
            rep = S.sample_representation(spec, genus, rng)
        except W.RelatorError:
            continue
        assert S.relator_residual(rep) <= 1e-11, seed
        for m in rep.images:
            assert np.isfinite(m).all(), seed
            assert G.membership_residual(spec, m) < 1e-9, seed


def test_holonomy_order_convention():
    # hol(u then v) = hol(v) hol(u)
    rng = np.random.default_rng(31)
    rep = S.sample_representation(GL2R, 2, rng)
    u = [1, 3, -2]
    v = [4, -1]
    hu, hv = S.holonomy(rep, u), S.holonomy(rep, v)
    assert np.allclose(S.holonomy(rep, u + v), hv @ hu, atol=1e-12)
    # single letters multiply in reverse reading order
    assert np.allclose(S.holonomy(rep, [1, 2]), rep.images[1] @ rep.images[0], atol=1e-14)


def test_trace_function_class_invariance():
    rng = np.random.default_rng(37)
    for spec, genus in [(GL2R, 1), (GL2C, 2), (U2, 2)]:
        rep = S.sample_representation(spec, genus, rng)
        w = [1, 2, 1] if genus == 1 else [1, 4, -3]
        base = G.invariant_f(rep.spec, S.holonomy(rep, w))
        for v in homotopy_variants(w, genus, rng, 12):
            got = G.invariant_f(rep.spec, S.holonomy(rep, v))
            assert abs(got - base) < 1e-8 * (1 + abs(base))


KERNEL_GROUPS = ("GL(2,R)", "GL(2,C)", "O(2,1)", "O(3,C)", "U(1,1)", "Sp(2,R)",
                 "Sp(1,1)", "GL(3,C)")  # d = 2, 3 and 4


def test_trace_functions_match_word_by_word():
    rng = np.random.default_rng(39)
    for spec, genus in [(GL2R, 1), (GL2C, 2), (U2, 2)]:
        rep = S.sample_representation(spec, genus, rng)
        letters = [k for k in range(-2 * genus, 2 * genus + 1) if k]
        words = [[], [1], (2, -1)] + [
            [int(x) for x in rng.choice(letters, size=int(rng.integers(0, 9)))]
            for _ in range(40)]
        got = S.trace_functions(rep, words)
        want = [G.invariant_f(rep.spec, S.holonomy(rep, list(w))) for w in words]
        assert got[0] == rep.spec.matrix_dim
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
    # every kind, d = 2, 3 and 4: mixed lengths up to 12, unreduced words
    # (x x^-1 pairs) and the empty word among others
    for group in KERNEL_GROUPS:
        spec = Z.parse_group_string(group)
        for genus in (1, 2):
            rep = S.sample_representation(spec, genus, rng)
            letters = [k for k in range(-2 * genus, 2 * genus + 1) if k]
            words = [[], [1], (2, -1), [1, -1, 2, -2], []] + [
                [int(x) for x in rng.choice(letters, size=int(rng.integers(0, 13)))]
                for _ in range(40)]
            got = np.array(S.trace_functions(rep, words))
            want = np.array([G.invariant_f(rep.spec, S.holonomy(rep, list(w)))
                             for w in words])
            assert got[0] == got[4] == spec.matrix_dim, group
            # the roundoff of a trace is relative to the holonomy it sums,
            # which is far larger than the trace when the diagonal cancels
            size = np.array([np.linalg.norm(S.holonomy(rep, list(w))) for w in words])
            assert np.all(abs(got - want) <= 1e-13 * (1 + size)), group
            assert S.trace_functions(rep, [[], []]) == [spec.matrix_dim] * 2
    assert S.trace_functions(rep, []) == []
    with pytest.raises(W.WordError):
        S.trace_functions(rep, [[1], [1, 2 * genus + 1]])
    with pytest.raises(W.WordError):
        S.trace_functions(rep, [[0]])
    with pytest.raises(W.WordError):
        S.trace_functions(rep, [[2, 1], [-(2 * genus + 1)]])


def test_trace_functions_overflow_is_non_finite_not_an_error():
    # tier-1 turns RuntimeWarning into an error, so a warning would raise
    rep = S.Representation(GL2R, 1, [np.diag([1e200, 1.0]), np.eye(2)])
    got = S.trace_functions(rep, [[1, 1], [1], [], [1, -2, 1, 1, 2]])
    assert np.isinf(got[0]) and not np.isfinite(got[3])
    assert got[1:3] == [1e200, 2.0]


def test_holonomy_of_relator_is_identity():
    rng = np.random.default_rng(41)
    rep = S.sample_representation(U2, 2, rng)
    h = S.holonomy(rep, W.relator(2))
    assert np.linalg.norm(h - np.eye(2)) < 1e-10


def test_word_range_checked():
    rng = np.random.default_rng(43)
    rep = S.sample_representation(GL2R, 1, rng)
    with pytest.raises(W.WordError):
        S.holonomy(rep, [3])


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_every_word_entry_point_rejects_letters_past_2g(genus):
    # a letter past 2g would read another letter's matrix from the signed
    # letter table, so each entry point checks the range first
    from loopbracket import bracket as B
    from loopbracket import transport as T

    rep = S.sample_representation(GL2R, genus, np.random.default_rng(genus))
    pert = {k: np.zeros((2, 2)) for k in range(1, 2 * genus + 1)}
    for x in (2 * genus + 1, -2 * genus - 1):
        calls = {"holonomy": lambda: S.holonomy(rep, [x]),
                 "evaluate": lambda: B.LoopSum([([1, x], 1)]).evaluate(rep),
                 "perturbed": lambda: T.perturbed_holonomy(rep, pert, [x]),
                 "rk4_perturbed": lambda: T.rk4_perturbed_holonomy(rep, pert, [x]),
                 "poisson_direct": lambda: B.poisson_direct(rep, [1], [x])}
        for call in calls.values():
            with pytest.raises(W.WordError):
                call()


@pytest.mark.parametrize("spec", [GL2R, U2], ids=str)
def test_letter_table_layout(spec):
    rep = S.sample_representation(spec, 2, np.random.default_rng(47))
    assert rep.letters.shape == (9, 2, 2)
    assert rep.letters[0].tobytes() == np.eye(2, dtype=complex).tobytes()
    for x in range(1, 5):
        assert rep.letters[x].tobytes() == rep.images[x - 1].tobytes()
        assert rep.letters[-x].tobytes() == np.linalg.inv(rep.images[x - 1]).tobytes()
    assert not rep.letters.flags.writeable
    with pytest.raises(ValueError):
        rep.letters[0, 0, 0] = 2.0
