import numpy as np
import pytest
from fractions import Fraction

from loopbracket import bracket as B
from loopbracket import groups as G
from loopbracket import polygon as P
from loopbracket import surface as S

GL2R = G.GroupSpec("GL_R", 2)
GL2C = G.GroupSpec("GL_C", 2)
O2 = G.GroupSpec("O_pq", 2, 2, 0)
U2 = G.GroupSpec("U_pq", 2, 2, 0)


def test_side_pairing_table():
    # partners come in (4k, 4k+2), (4k+1, 4k+3) pairs
    for side in range(8):
        assert P.partner_side(P.partner_side(side)) == side
    assert P.partner_side(0) == 2
    assert P.partner_side(1) == 3
    assert P.partner_side(5) == 7
    # letter <-> side tables invert each other, genus 1 and 2
    for genus in (1, 2):
        for letter in [x for k in range(1, 2 * genus + 1) for x in (k, -k)]:
            side = P.exit_side_for_letter(genus, letter)
            assert P.letter_for_exit_side(genus, side) == letter
    # fixed anchors on the square: a exits the left side, b the bottom
    assert P.exit_side_for_letter(1, 1) == 3
    assert P.exit_side_for_letter(1, 2) == 0


def _vertices(genus):
    """Plane model: the unit square for genus 1, else the regular 4g-gon."""
    if genus == 1:
        return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    ang = 2 * np.pi * np.arange(4 * genus) / (4 * genus)
    return np.c_[np.cos(ang), np.sin(ang)]


def _segments(loop):
    """Plane chords of a realized loop, rebuilt from its exit parameters."""
    verts = _vertices(loop.genus)
    k = len(verts)

    def side_point(side, t):
        return verts[side % k] + t * (verts[(side + 1) % k] - verts[side % k])

    sides = [P.exit_side_for_letter(loop.genus, x) for x in loop.word]
    exits = [side_point(s, t) for s, t in zip(sides, loop.exit_params)]
    entries = [side_point(P.partner_side(s), 1 - t)
               for s, t in zip(sides, loop.exit_params)]
    return [(entries[j - 1], exits[j]) for j in range(len(sides))]


def test_square_torus_chords():
    rng = np.random.default_rng(0)
    a = P.realize(1, [1], rng)
    (t,) = a.exit_params
    # a re-enters the right side s_1 at 1 - t and exits the left side s_3
    # at t: both at height 1 - t, so it runs leftward at equal height
    assert P._boundary_chords(a) == [(2 - t, 3 + t)]
    (p0, p1), = _segments(a)
    assert p0[0] == pytest.approx(1.0) and p1[0] == pytest.approx(0.0)
    assert p0[1] == pytest.approx(p1[1])
    b = P.realize(1, [2], rng)
    (t,) = b.exit_params
    # b re-enters the top side s_2 at 1 - t and exits the bottom side s_0
    # at t: both at x = t, so it runs downward
    assert P._boundary_chords(b) == [(3 - t, 0 + t)]
    (q0, q1), = _segments(b)
    assert q0[1] == pytest.approx(1.0) and q1[1] == pytest.approx(0.0)
    assert q0[0] == pytest.approx(q1[0])


def test_realize_reduces_and_spells_word():
    rng = np.random.default_rng(1)
    loop = P.realize(2, [1, 3, -3, 2], rng)
    assert loop.word == (1, 2)
    assert len(loop.exit_params) == 2
    assert all(0.12 <= t <= 0.88 for t in loop.exit_params)
    loop2 = P.realize(1, [1, 2, -2, -1], rng)
    assert loop2.word == ()
    assert loop2.exit_params == []      # the empty class has no chords


def _float_crossings(first, second):
    """Reference: plane-geometry intersection of the two chord chains.

    Returns (seg_first, seg_second, sign, point) for every pair of chords
    whose segments meet at interior parameters, sign = det[u, v].
    """
    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    found = []
    for i, (p0, p1) in enumerate(_segments(first)):
        u = p1 - p0
        for j, (q0, q1) in enumerate(_segments(second)):
            v = q1 - q0
            den = cross(u, v)
            if den == 0.0:
                continue
            w = q0 - p0
            s, t = cross(w, v) / den, cross(w, u) / den
            if 0 < s < 1 and 0 < t < 1:
                found.append((i, j, 1 if den > 0 else -1, p0 + s * u))
    return found


def test_crossings_are_interior():
    # boundary-order crossings equal the plane-geometry ones, in order,
    # and every one of them lies strictly inside the polygon
    rng = np.random.default_rng(2)
    compared = 0
    for trial in range(2100):
        genus = 1 + trial % 3
        words = []
        for _ in range(2):
            draw = rng.integers(1, 2 * genus + 1, size=int(rng.integers(1, 17)))
            words.append(S.cyclic_reduce(
                [int(x) * (1 if rng.integers(2) else -1) for x in draw]))
        if not words[0] or not words[1]:
            continue
        c1 = P.realize(genus, words[0], rng)
        c2 = P.realize(genus, words[1], rng)
        want = _float_crossings(c1, c2)
        got = [(x.seg_first, x.seg_second, x.sign) for x in P.intersections(c1, c2)]
        assert got == [w[:3] for w in want], (genus, words)
        verts = _vertices(genus)
        k = len(verts)
        for *_, point in want:
            for i in range(k):
                edge = verts[(i + 1) % k] - verts[i]
                inward = np.array([-edge[1], edge[0]])
                assert np.dot(point - verts[i], inward) > 1e-9
        compared += 1
    assert compared >= 2000


def test_empty_class_crosses_nothing():
    rng = np.random.default_rng(3)
    for genus in (1, 2):
        empty = P.realize(genus, [], rng)
        loop = P.realize(genus, [1, 2, -1, -2], rng)
        assert P.intersections(empty, loop) == []
        assert P.intersections(loop, empty) == []


def test_shared_endpoint_is_rejected():
    # the a-chords of both loops end at the same boundary point
    a = P.PLLoop(1, (1,), [0.5])
    b = P.PLLoop(1, (2, 1), [0.3, 0.5])
    with pytest.raises(P.RealizationError):
        P.intersections(a, b)
    assert P.intersections(a, P.PLLoop(1, (2, 1), [0.3, 0.6])) != []


def test_torus_a_b_single_positive_crossing():
    # the normalization: [a, b] = +(a b)
    out = B.bracket_oriented(1, [1], [2], seed=0)
    assert out.terms == {S.canonical_cyclic([1, 2]): Fraction(1)}
    # and antisymmetry at the combinatorial level for the swap
    out_ba = B.bracket_oriented(1, [2], [1], seed=0)
    assert out_ba.terms == {S.canonical_cyclic([1, 2]): Fraction(-1)}


def test_genus2_handle_normalizations():
    out = B.bracket_oriented(2, [1], [2], seed=3)
    assert out.terms == {S.canonical_cyclic([1, 2]): Fraction(1)}
    out = B.bracket_oriented(2, [3], [4], seed=3)
    assert out.terms == {S.canonical_cyclic([3, 4]): Fraction(1)}
    # disjoint handles never cross
    assert B.bracket_oriented(2, [1], [3], seed=3).terms == {}
    assert B.bracket_oriented(2, [1], [4], seed=4).terms == {}


def test_parallel_classes_do_not_cross():
    assert B.bracket_oriented(1, [1], [1], seed=5).terms == {}
    assert B.bracket_oriented(1, [1], [-1], seed=6).terms == {}


def test_trivial_class_brackets_to_zero():
    assert B.bracket_oriented(1, [], [1, 2], seed=7).terms == {}
    assert B.bracket_oriented(1, [1, 2], [], seed=8).terms == {}
    assert B.bracket_oriented(2, [1, -2, 2, -1], [3, 4], seed=9).terms == {}


def test_antisymmetry_from_shared_realization():
    # same crossing data read both ways cancels exactly
    c1, c2, crossings = P.realized_pair(2, [1, 2, 3], [4, -1], seed=11)
    fwd, bwd = B.LoopSum(), B.LoopSum()
    for x in crossings:
        fwd.add(c1.based_word(x.seg_first) + c2.based_word(x.seg_second), x.sign)
        bwd.add(c2.based_word(x.seg_second) + c1.based_word(x.seg_first), -x.sign)
    assert (fwd + bwd).terms == {}


def test_torus_closed_form_small_cases():
    rng = np.random.default_rng(13)
    reps = [S.sample_representation(GL2R, 1, rng) for _ in range(3)]
    for (p, q, r, s) in [(1, 0, 0, 1), (1, 1, 0, 1), (2, 1, 1, -1),
                         (1, 0, -1, 0), (2, 0, 0, 1), (-1, 2, 3, 1),
                         (2, 2, 1, 1), (0, 0, 1, 2)]:
        geo = B.bracket_oriented(1, B.torus_class_word(p, q),
                                 B.torus_class_word(r, s), seed=17)
        closed = B.torus_closed_form(p, q, r, s)
        for rep in reps:
            a, b = geo.evaluate(rep), closed.evaluate(rep)
            assert abs(a - b) < 1e-8 * (1 + abs(b)), (p, q, r, s)


def test_oriented_matches_poisson_on_gl():
    rng = np.random.default_rng(19)
    for spec in (GL2R, GL2C):
        for genus, w1, w2 in [(1, [1], [2]), (1, [1, 1, 2], [2, -1]),
                              (2, [1, 2], [2, 3, -4])]:
            rep = S.sample_representation(spec, genus, rng)
            lhs = B.bracket_oriented(genus, w1, w2, seed=23).evaluate(rep)
            rhs = B.poisson_direct(rep, w1, w2, seed=29)
            assert abs(lhs - rhs) < 1e-8 * (1 + abs(lhs))


def test_unoriented_matches_poisson_on_form_kinds():
    rng = np.random.default_rng(31)
    for spec in (O2, U2):
        for genus, w1, w2 in [(1, [1], [2]), (1, [1, 2], [2, 2, -1]),
                              (2, [1, 2], [2, -3])]:
            rep = S.sample_representation(spec, genus, rng)
            lhs = B.bracket_unoriented(genus, w1, w2, seed=37).evaluate(rep)
            rhs = B.poisson_direct(rep, w1, w2, seed=41)
            assert abs(lhs - rhs) < 1e-8 * (1 + abs(lhs))


def test_poisson_direct_matches_letter_by_letter_holonomies():
    # shared prefix/suffix products against one S.holonomy per based word
    rng = np.random.default_rng(71)
    for spec, genus in [(GL2R, 1), (GL2C, 2), (O2, 2), (U2, 3)]:
        rep = S.sample_representation(spec, genus, rng)
        letters = [k for k in range(-2 * genus, 2 * genus + 1) if k]
        for trial in range(4):
            w1, w2 = (S.cyclic_reduce([int(x) for x in rng.choice(letters, size=n)])
                      for n in (12, 9))
            seed = 73 + trial
            c1, c2, crossings = P.realized_pair(genus, w1, w2, seed)
            terms = [x.sign * G.pairing(
                G.variation(spec, S.holonomy(rep, c1.based_word(x.seg_first))),
                G.variation(spec, S.holonomy(rep, c2.based_word(x.seg_second))))
                for x in crossings]
            got = B.poisson_direct(rep, w1, w2, seed=seed)
            assert abs(got - sum(terms)) <= 1e-12 * (1 + sum(map(abs, terms)))


def test_evaluate_rejects_out_of_range_letter():
    rep = S.sample_representation(GL2R, 1, np.random.default_rng(79))
    with pytest.raises(S.WordError):
        B.LoopSum([([1, 2], 1), ([3], 2)]).evaluate(rep)


def test_representative_independence_small():
    rng = np.random.default_rng(43)
    rep = S.sample_representation(GL2C, 2, rng)
    w1, w2 = [1, 2], [3, -1]
    base = B.bracket_oriented(2, w1, w2, seed=47).evaluate(rep)
    for v1, v2 in zip(S.homotopy_variants(w1, 2, rng, 4),
                      S.homotopy_variants(w2, 2, rng, 4)):
        for seed in (1, 2):
            got = B.bracket_oriented(2, v1, v2, seed=seed).evaluate(rep)
            assert abs(got - base) < 1e-8 * (1 + abs(base))


def test_jacobi_small():
    rng = np.random.default_rng(53)
    rep = S.sample_representation(GL2R, 1, rng)
    words = ([1], [2], [1, 2])
    total = 0.0
    for (x, y, z) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        inner = B.bracket_oriented(1, words[x], words[y], seed=59 + x)
        outer = B.bracket_sums(1, inner, B.LoopSum([(words[z], 1)]), seed=61 + x)
        total += outer.evaluate(rep)
    assert abs(total) < 1e-8


def test_loopsum_merges_rotations():
    s = B.LoopSum()
    s.add([1, 2], 1)
    s.add([2, 1], 2)
    assert s.terms == {(1, 2): Fraction(3)}
    s.add([1, 2], -3)
    assert s.terms == {}


def test_realized_pair_deterministic():
    a = B.bracket_oriented(2, [1, 2, -3], [4, 3], seed=67)
    b = B.bracket_oriented(2, [1, 2, -3], [4, 3], seed=67)
    assert a == b
