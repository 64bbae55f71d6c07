import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopbracket import groups as G
from loopbracket import surface as S

GL2R = G.GroupSpec("GL_R", 2)
GL2C = G.GroupSpec("GL_C", 2)
O2 = G.GroupSpec("O_pq", 2, 2, 0)
O11 = G.GroupSpec("O_pq", 2, 1, 1)
U2 = G.GroupSpec("U_pq", 2, 2, 0)
SP2 = G.GroupSpec("Sp_R", 2)

letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
words = st.lists(letters, max_size=10)


def test_word_round_trip():
    w = [1, 2, -1, -2, 3, -4]
    assert S.parse_word(S.format_word(w)) == w
    assert S.parse_word("a1 b2 A10") == [1, 4, -19]
    with pytest.raises(S.WordError):
        S.parse_word("c1")
    with pytest.raises(S.WordError):
        S.parse_word("a0")


@given(words)
def test_free_reduce_is_reduced(w):
    r = S.free_reduce(w)
    assert all(r[i] != -r[i + 1] for i in range(len(r) - 1))


@given(words)
def test_cyclic_reduce_is_cyclically_reduced(w):
    r = S.cyclic_reduce(w)
    assert all(r[i] != -r[i + 1] for i in range(len(r) - 1))
    if len(r) >= 2:
        assert r[0] != -r[-1]


@given(words)
def test_canonical_cyclic_rotation_invariant(w):
    c = S.canonical_cyclic(w)
    for k in range(1, max(len(w), 1)):
        assert S.canonical_cyclic(w[k:] + w[:k]) == c


@given(words, words)
def test_canonical_cyclic_respects_concat_cancel(u, v):
    # u v and v u are conjugate, hence share a canonical form
    assert S.canonical_cyclic(u + v) == S.canonical_cyclic(v + u)


def test_relator():
    assert S.relator(1) == [1, 2, -1, -2]
    assert S.relator(2) == [1, 2, -1, -2, 3, 4, -3, -4]


@settings(deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_word_inverse_cancels(seed):
    rng = np.random.default_rng(seed)
    w = list(rng.integers(1, 5, size=6) * np.where(rng.integers(0, 2, size=6), 1, -1))
    w = [int(x) for x in w]
    assert S.free_reduce(w + S.inverse_word(w)) == []


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
        base = S.trace_function(rep, w)
        for v in S.homotopy_variants(w, genus, rng, 12):
            assert abs(S.trace_function(rep, v) - base) < 1e-8 * (1 + abs(base))


def test_trace_functions_match_word_by_word():
    rng = np.random.default_rng(39)
    for spec, genus in [(GL2R, 1), (GL2C, 2), (U2, 2)]:
        rep = S.sample_representation(spec, genus, rng)
        letters = [k for k in range(-2 * genus, 2 * genus + 1) if k]
        words = [[], [1], (2, -1)] + [
            [int(x) for x in rng.choice(letters, size=int(rng.integers(0, 9)))]
            for _ in range(40)]
        got = S.trace_functions(rep, words)
        want = [S.trace_function(rep, list(w)) for w in words]
        assert got[0] == rep.spec.matrix_dim
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)
    assert S.trace_functions(rep, []) == []
    with pytest.raises(S.WordError):
        S.trace_functions(rep, [[1], [1, 2 * genus + 1]])
    with pytest.raises(S.WordError):
        S.trace_functions(rep, [[0]])
    with pytest.raises(S.WordError):
        S.trace_functions(rep, [[2, 1], [-(2 * genus + 1)]])


def test_holonomy_of_relator_is_identity():
    rng = np.random.default_rng(41)
    rep = S.sample_representation(U2, 2, rng)
    h = S.holonomy(rep, S.relator(2))
    assert np.linalg.norm(h - np.eye(2)) < 1e-10


def test_word_range_checked():
    rng = np.random.default_rng(43)
    rep = S.sample_representation(GL2R, 1, rng)
    with pytest.raises(S.WordError):
        S.holonomy(rep, [3])
