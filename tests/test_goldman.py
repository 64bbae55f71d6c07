import inspect
import sys
from contextlib import nullcontext
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopbracket import bracket as B
from loopbracket import groups as G
from loopbracket import polygon as P
from loopbracket import serialize as Z
from loopbracket import surface as S
from loopbracket import words as W
import holonomy_reference as H
import layout_reference as L
import splice_reference as K
from test_surface import homotopy_variants

GL2R = G.GroupSpec("GL_R", 2)
GL2C = G.GroupSpec("GL_C", 2)
O2 = G.GroupSpec("O_pq", 2, 2, 0)
U2 = G.GroupSpec("U_pq", 2, 2, 0)


def test_side_pairing_table():
    # the 4g letters x exit through the 4g sides, each side once, and the
    # gluing s_4k ~ s_4k+2, s_4k+1 ~ s_4k+3 pairs the exit sides of x and
    # x^-1: a chord re-enters after x through the exit side of x^-1
    for genus in range(1, 6):
        letters = [x for k in range(1, 2 * genus + 1) for x in (k, -k)]
        sides = {x: P.exit_side_for_letter(genus, x) for x in letters}
        assert sorted(sides.values()) == list(range(4 * genus))
        for x in letters:
            side, back = sides[x], sides[-x]
            assert side // 4 == back // 4 and {side % 4, back % 4} in ({0, 2}, {1, 3})
    # fixed anchors on the square: a exits the left side, b the bottom
    assert P.exit_side_for_letter(1, 1) == 3
    assert P.exit_side_for_letter(1, 2) == 0


def test_gluing_against_the_relator():
    # the corners of the glued polygon meet at one vertex: its link runs
    # from side s through the partner s ^ 2 to the next side (s ^ 2) + 1,
    # and the exit letters of the sides along it spell the relator, read
    # backwards; exchanging two exit sides breaks this at genus >= 2
    for genus in range(1, 7):
        letter_at = {P.exit_side_for_letter(genus, x): x
                     for k in range(1, 2 * genus + 1) for x in (k, -k)}
        side, read = 0, []
        for _ in range(4 * genus):
            read.append(letter_at[side])
            side = ((side ^ 2) + 1) % (4 * genus)
        assert side == 0
        want = W.inverse_word(W.relator(genus))
        assert any(read == want[i:] + want[:i] for i in range(len(want))), (
            genus, read)


def test_loopsum_repr():
    # perfbench writes sums into its failure messages with {!r}
    assert repr(B.LoopSum([([2, 1], Fraction(-1, 2)), ([3], 2)])) == (
        "LoopSum(2 * a2, -1/2 * a1 b1)")
    assert repr(B.LoopSum()) == "LoopSum()"
    assert repr(B.LoopSum([([], 3)])) == "LoopSum(3 * 1)"


def test_slot_permutation_is_a_pure_function_of_the_seed():
    import random
    for size in (0, 1, 2, 7, 64):
        for seed in (0, 1, 12345, 2 ** 31 - 1):
            perm = L.slot_permutation(size, seed)
            assert sorted(perm) == list(range(size))
            random.seed(seed + 1)  # the global generator plays no part
            random.random()
            assert L.slot_permutation(size, seed) == perm
    assert len({tuple(L.slot_permutation(16, s)) for s in range(8)}) == 8
    # Python keeps the stream of a seeded random.Random across versions
    assert L.slot_permutation(8, 0) == [0, 3, 4, 7, 1, 2, 5, 6]


def _vertices(genus):
    """Plane model: the unit square for genus 1, else the regular 4g-gon."""
    if genus == 1:
        return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    ang = 2 * np.pi * np.arange(4 * genus) / (4 * genus)
    return np.c_[np.cos(ang), np.sin(ang)]


def _segments(loop, width):
    """Plane chords of a loop, rebuilt from its perimeter positions
    side * width + numerator, where width = 4n + 1 for n letters in the
    pair."""
    verts = _vertices(loop.genus)
    k = len(verts)

    def point(position):
        side, m = divmod(position, width)
        return verts[side] + m / width * (verts[(side + 1) % k] - verts[side])

    return [(point(a), point(b)) for a, b in loop.chords]


def test_square_torus_chords():
    a, b, crossings = L.realized_pair(1, [1], [2], 0)
    width = 4 * 2 + 1
    (start, end), = a.chords
    m = end - 3 * width
    # a re-enters the right side s_1 at 1 - t and exits the left side s_3
    # at t: both at height 1 - t, so it runs leftward at equal height
    assert m % 2 == 1 and start == 1 * width + width - m
    (p0, p1), = _segments(a, width)
    assert p0[0] == pytest.approx(1.0) and p1[0] == pytest.approx(0.0)
    assert p0[1] == pytest.approx(p1[1])
    (start, end), = b.chords
    # b re-enters the top side s_2 at 1 - t and exits the bottom side s_0
    # at t: both at x = t, so it runs downward
    assert end % 2 == 1 and start == 2 * width + width - end
    (q0, q1), = _segments(b, width)
    assert q0[1] == pytest.approx(1.0) and q1[1] == pytest.approx(0.0)
    assert q0[0] == pytest.approx(q1[0])
    assert crossings == [(1, 0, 0)]


def test_realize_reduces_and_spells_word():
    for seed in (1, None):
        _assert_reduces_and_spells_word(seed)


def _assert_reduces_and_spells_word(seed):
    loop, empty, crossings = _realized_pair(2, [1, 3, -3, 2], [1, 2, -2, -1], seed)
    assert loop.word == (1, 2)
    assert empty.word == () and empty.chords == []  # no chords
    assert crossings == []
    width = 4 * 2 + 1
    # chord j exits through the side of word[j], and re-enters through
    # the side glued to the exit side of word[j-1]
    for j, (start, end) in enumerate(loop.chords):
        assert end // width == P.exit_side_for_letter(2, loop.word[j])
        assert start // width == P.exit_side_for_letter(2, -loop.word[j - 1])
        if seed is not None:  # the seeded slots are odd, their re-entries even
            assert end % width % 2 == 1 and start % width % 2 == 0
        assert 0 < end % width < width and 0 < start % width < width


def _realized_pair(genus, word1, word2, seed):
    """The library's layout at seed None, else the seeded reference one."""
    if seed is None:
        return P.realized_pair(genus, word1, word2)
    return L.realized_pair(genus, word1, word2, seed)


def _float_crossings(first, second, width):
    """Reference: plane-geometry intersection of the two chord chains.

    Returns (i, j, sign, point) for every pair of chords i and j
    whose segments meet at interior parameters, sign = det[u, v].
    """
    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    found = []
    for i, (p0, p1) in enumerate(_segments(first, width)):
        u = p1 - p0
        for j, (q0, q1) in enumerate(_segments(second, width)):
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
    _assert_crossings_interior(seeded=True)


def test_sorted_layout_crossings_are_interior():
    _assert_crossings_interior(seeded=False)


def _assert_crossings_interior(seeded):
    # boundary-order crossings equal the plane-geometry ones, in order,
    # and every one of them lies strictly inside the polygon
    rng = np.random.default_rng(2)
    compared = 0
    for trial in range(2100):
        genus = 1 + trial % 3
        words = []
        for _ in range(2):
            draw = rng.integers(1, 2 * genus + 1, size=int(rng.integers(1, 17)))
            words.append(W.cyclic_reduce(
                [int(x) * (1 if rng.integers(2) else -1) for x in draw]))
        if not words[0] or not words[1]:
            continue
        c1, c2, crossings = _realized_pair(genus, *words, trial if seeded else None)
        width = 4 * (len(c1.word) + len(c2.word)) + 1
        want = _float_crossings(c1, c2, width)
        got = [(i, j, sign) for sign, i, j in crossings]
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
    for genus in (1, 2):
        for seed in (None, 3):
            assert _realized_pair(genus, [], [1, 2, -1, -2], seed)[2] == []
            assert _realized_pair(genus, [1, 2, -1, -2], [], seed)[2] == []


def test_long_pairs_always_realize():
    # the float layout this replaced failed on pairs such as a1^300, b1
    rng = np.random.default_rng(5)
    pairs = [(1, [1] * 300, [2])]
    for genus, n1, n2 in [(1, 120, 80), (2, 100, 120), (3, 40, 260),
                          (2, 24, 24), (3, 7, 5)]:
        letters = [k for k in range(-2 * genus, 2 * genus + 1) if k]
        pairs.append((genus, *([int(x) for x in rng.choice(letters, size=n)]
                               for n in (n1, n2))))
    for genus, w1, w2 in pairs:
        sums = set()
        for seed in (None, *range(5)):
            with nullcontext() if seed is None else L.seeded(seed):
                c1, c2, _ = P.realized_pair(genus, w1, w2)
                sums.add(tuple(B._bracket(genus, w1, w2, False).items()))
            ends = [p for c in c1.chords + c2.chords for p in c]
            assert len(ends) == 2 * (len(c1.word) + len(c2.word))
            assert len(set(ends)) == len(ends), (genus, w1, w2, seed)
        assert len(sums) == 1, (genus, w1, w2)


def _layout_cases(rng, count):
    """(genus, w1, w2) at genus 1-3, 64 and 70, cycling through random
    pairs, equal words, a word and its inverse, two powers of one word
    and an empty word on either side.  Genus 64 and 70 draw from a few
    letters, some past a signed byte."""
    for trial in range(count):
        genus = (1, 2, 3, 64, 70)[trial % 5]
        if genus < 64:
            letters = [k for k in range(-2 * genus, 2 * genus + 1) if k]
        else:
            letters = [x for k in (1, 2, 127, 128, 2 * genus) for x in (k, -k)]

        def draw(low, high):
            return [int(x) for x in rng.choice(letters, size=int(rng.integers(low, high)))]

        kind = trial // 5 % 6
        w1, w2 = draw(1, 17), draw(1, 17)
        if kind == 1:
            w2 = list(w1)
        elif kind == 2:
            w2 = W.inverse_word(w1)
        elif kind == 3:
            u = W.cyclic_reduce(draw(1, 5))
            w1, w2 = u * int(rng.integers(1, 4)), u * int(rng.integers(2, 5))
        elif kind == 4:
            w2 = []
        elif kind == 5:
            w1 = []
        yield genus, w1, w2


def test_sorted_layout_brackets_equal_seeded_ones():
    # distinct boundary points make any layout a generic realization, so
    # the layout by futures gives each seeded layout's LoopSum
    checked = 0
    for trial, (genus, w1, w2) in enumerate(_layout_cases(np.random.default_rng(97), 3000)):
        for unoriented in (False, True):
            want = L.bracket(genus, w1, w2, trial % 7, unoriented)
            assert B._bracket(genus, w1, w2, unoriented) == want, (genus, w1, w2)
            checked += bool(want.terms)
    assert checked >= 2000


def test_sorted_layout_stays_near_minimal_position():
    # a term takes at least one crossing, so no layout has fewer crossings
    # than the oriented bracket has terms; seeded layouts have far more
    for genus in (2, 3):
        rng = np.random.default_rng([101, genus])
        letters = [k for k in range(-2 * genus, 2 * genus + 1) if k]
        ordered = seeded = terms = 0
        for _ in range(400):
            w1, w2 = ([int(x) for x in rng.choice(letters, size=int(rng.integers(1, 20)))]
                      for _ in range(2))
            ordered += len(P.realized_pair(genus, w1, w2)[2])
            seeded += len(L.realized_pair(genus, w1, w2, 0)[2])
            terms += len(B.bracket_oriented(genus, w1, w2).terms)
        assert ordered <= 1.05 * terms, (genus, ordered, terms)
        assert ordered <= 0.85 * seeded, (genus, ordered, seeded)


def test_torus_a_b_single_positive_crossing():
    # the normalization: [a, b] = +(a b)
    out = B.bracket_oriented(1, [1], [2], seed=0)
    assert out.terms == {W.canonical_cyclic([1, 2]): Fraction(1)}
    # and antisymmetry at the combinatorial level for the swap
    out_ba = B.bracket_oriented(1, [2], [1], seed=0)
    assert out_ba.terms == {W.canonical_cyclic([1, 2]): Fraction(-1)}


def test_genus2_handle_normalizations():
    out = B.bracket_oriented(2, [1], [2], seed=3)
    assert out.terms == {W.canonical_cyclic([1, 2]): Fraction(1)}
    out = B.bracket_oriented(2, [3], [4], seed=3)
    assert out.terms == {W.canonical_cyclic([3, 4]): Fraction(1)}
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
    # the words are checked before the trivial class brackets to zero
    with pytest.raises(W.WordError):
        B.bracket_oriented(1, [], [7])
    with pytest.raises(W.WordError):
        B.bracket_oriented(0, [1, -1], [1])
    with pytest.raises(W.WordError):
        B.bracket_unoriented(1, [2, -2], [1, 9])


def _based(loop, i):
    """The word of a loop read from a point of its chord i."""
    w = list(loop.word)
    return w[i:] + w[:i]


def test_antisymmetry_from_shared_realization():
    # same crossing data read both ways cancels exactly
    c1, c2, crossings = L.realized_pair(2, [1, 2, 3], [4, -1], 11)
    fwd, bwd = B.LoopSum(), B.LoopSum()
    for sign, i, j in crossings:
        g, l = _based(c1, i), _based(c2, j)
        fwd.add(g + l, sign)
        bwd.add(l + g, -sign)
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
            for rhs in (B.poisson_direct(rep, w1, w2), L.poisson_direct(rep, w1, w2, 29)):
                assert abs(lhs - rhs) < 1e-8 * (1 + abs(lhs))


def test_unoriented_matches_poisson_on_form_kinds():
    # the Sp kinds' antisymmetric forms watch sigma's F^T, U and Sp its conjugate
    rng = np.random.default_rng(31)
    kinds = ("O(2,1)", "O(2,C)", "U(1,1)", "Sp(2,R)", "Sp(1,1)")
    for spec in (O2, U2, *map(Z.parse_group_string, kinds)):
        for genus, w1, w2 in [(1, [1], [2]), (1, [1, 2], [2, 2, -1]),
                              (2, [1, 2], [2, -3])]:
            rep = S.sample_representation(spec, genus, rng)
            lhs = B.bracket_unoriented(genus, w1, w2, seed=37).evaluate(rep)
            for rhs in (B.poisson_direct(rep, w1, w2), L.poisson_direct(rep, w1, w2, 41)):
                assert abs(lhs - rhs) < 1e-8 * (1 + abs(lhs))


ALL_KINDS = ("GL(2,R)", "GL(2,C)", "O(2,1)", "O(3,C)", "U(1,1)", "Sp(2,R)",
             "Sp(1,1)", "GL(3,C)")


def test_poisson_direct_matches_letter_by_letter_holonomies():
    # one F per loop, conjugated by prefix frames, against one S.holonomy
    # per based word
    rng = np.random.default_rng(71)
    cases = [(GL2R, 1), (GL2C, 2), (O2, 2), (U2, 3)] + [
        (Z.parse_group_string(group), 1 + k % 3) for k, group in enumerate(ALL_KINDS)]
    for spec, genus in cases:
        rep = S.sample_representation(spec, genus, rng)
        letters = [k for k in range(-2 * genus, 2 * genus + 1) if k]
        for trial in range(4):
            w1, w2 = (W.cyclic_reduce([int(x) for x in rng.choice(letters, size=n)])
                      for n in (12, 9))
            # the library's layout, then a seeded one patched in for both
            for layout in (nullcontext(), L.seeded(73 + trial)):
                with layout:
                    c1, c2, crossings = P.realized_pair(genus, w1, w2)
                    got = B.poisson_direct(rep, w1, w2)
                terms = [sign * G.pairing(
                    G.variation(spec, S.holonomy(rep, _based(c1, i))),
                    G.variation(spec, S.holonomy(rep, _based(c2, j))))
                    for sign, i, j in crossings]
                assert abs(got - sum(terms)) <= 1e-12 * (1 + sum(map(abs, terms))), spec


@st.composite
def _rotation_pairs(draw):
    """Cyclically reduced g and l at genus 1-3; l is random, g^-1 (all
    cancels), g^-1 followed by a tail (g cancels away and leaves a tail
    that need not be cyclically reduced), or begins with an inverse
    suffix of g (part cancels)."""
    genus = draw(st.integers(1, 3))
    letter = st.integers(-2 * genus, 2 * genus).filter(bool)
    g = W.cyclic_reduce(draw(st.lists(letter, min_size=1, max_size=12)))
    tail = draw(st.lists(letter, max_size=8))
    mode = draw(st.sampled_from(("random", "inverse", "inverse+tail", "suffix")))
    if mode == "inverse":
        l = W.inverse_word(g)
    elif mode == "inverse+tail":
        l = W.cyclic_reduce(W.inverse_word(g) + tail)
    elif mode == "suffix":
        cut = draw(st.integers(0, len(g)))
        l = W.cyclic_reduce(W.inverse_word(g[cut:]) + tail)
    else:
        l = W.cyclic_reduce(tail)
    return g, l


def _naive_class(word):
    """canonical_cyclic by brute force: the least of all rotations."""
    w = W.cyclic_reduce(list(word))
    return min((tuple(w[k:] + w[:k]) for k in range(len(w))), default=())


def _assert_splices_canonical(g, l):
    """The bracket's key for every (i, j) splice of g and l decodes to the
    class of g_i l_j, with and without rank tables.

    realized_pair is patched to give g, l and one crossing per splice, of
    sign 2^(i len(l) + j), so the count of a key spells out the splices
    it keys.  All the splices at once rank the pair where 2 n1 n2 >=
    3 (n1 + n2); one splice alone never does.
    """
    if not g or not l:
        return
    loops = SimpleNamespace(word=tuple(g)), SimpleNamespace(word=tuple(l))
    every, want = [], {}
    for i in range(len(g)):
        for j in range(len(l)):
            bit = 1 << (i * len(l) + j)
            key = B._encode(_naive_class(g[i:] + g[:i] + l[j:] + l[:j]))
            want[key] = want.get(key, 0) + bit
            every.append((bit, i, j))
    alone = {}
    with mock.patch.object(P, "realized_pair") as realized:
        realized.return_value = (*loops, every)
        assert B._counts(1, g, l, False) == want, (g, l)
        for crossing in every:
            realized.return_value = (*loops, [crossing])
            for key, bit in B._counts(1, g, l, False).items():
                alone[key] = alone.get(key, 0) + bit
    assert alone == want, (g, l)


@given(_rotation_pairs())
def test_junction_reduction_matches_canonical_cyclic(pair):
    _assert_splices_canonical(*pair)


@st.composite
def _splice_pairs(draw):
    """Cyclically reduced g and l: random, periodic u^k, nearly periodic
    u^k v, or l cancelling into g at the junctions.  Genus 64 and 70 draw
    from a few letters, some past a signed byte."""
    genus = draw(st.sampled_from((1, 2, 3, 64, 70)))
    if genus < 64:
        letter = st.integers(-2 * genus, 2 * genus).filter(bool)
    else:
        letter = st.sampled_from([x for k in (1, 2, 127, 128, 2 * genus) for x in (k, -k)])

    def word():
        kind = draw(st.sampled_from(("random", "power", "power+tail")))
        if kind == "random":
            return W.cyclic_reduce(draw(st.lists(letter, min_size=1, max_size=16)))
        u = W.cyclic_reduce(draw(st.lists(letter, min_size=1, max_size=4)))
        power = u * draw(st.integers(2, 5))
        if kind == "power+tail":
            power = W.cyclic_reduce(power + draw(st.lists(letter, min_size=1, max_size=3)))
        return power

    g = word()
    mode = draw(st.sampled_from(("word", "cancel", "cancel+word")))
    if mode == "word":
        return g, word()
    # l begins with the inverse of a suffix of g, or ends with the
    # inverse of a prefix: both junctions cancel
    cut = draw(st.integers(0, len(g)))
    tail = word() if mode == "cancel+word" else []
    return g, W.cyclic_reduce(W.inverse_word(g[cut:]) + tail + W.inverse_word(g[:cut // 2]))


@given(_splice_pairs())
@example(([1] * 30 + [2], [2]))
@example(([1, 2] * 10, [1, 2] * 3))
@example(([1, 2] * 10, [-2, -1] * 3 + [3]))
@example(([139, 140, -1] * 5, [140, 1, -139]))
def test_splice_keys_match_naive_least_rotation(pair):
    _assert_splices_canonical(*pair)


def _bracket_by_add(genus, word1, word2, seed, unoriented):
    # the bracket as one LoopSum.add per term, canonicalising each
    # joined word from scratch
    out = B.LoopSum()
    if not W.cyclic_reduce(word1) or not W.cyclic_reduce(word2):
        return out
    c1, c2, crossings = L.realized_pair(genus, word1, word2, seed)
    for sign, i, j in crossings:
        g = _based(c1, i)
        l = _based(c2, j)
        if unoriented:
            out.add(g + l, Fraction(sign, 2))
            out.add(g + W.inverse_word(l), Fraction(-sign, 2))
        else:
            out.add(g + l, sign)
    return out


def test_bracket_matches_term_by_term_assembly():
    rng = np.random.default_rng(83)
    for trial in range(1000):
        genus = 1 + trial % 3
        letters = [k for k in range(-2 * genus, 2 * genus + 1) if k]
        w1, w2 = ([int(x) for x in rng.choice(letters, size=int(rng.integers(0, 21)))]
                  for _ in range(2))
        if trial % 5 < 2:
            # a rotation of w1^-1, alone (everything cancels at the two
            # junctions) or before the random w2 (w1 cancels away)
            k = int(rng.integers(0, len(w1) + 1))
            w2 = W.inverse_word(w1[k:] + w1[:k]) + (w2 if trial % 5 else [])
        seed = int(rng.integers(2 ** 31))
        for unoriented in (False, True):
            fn = B.bracket_unoriented if unoriented else B.bracket_oriented
            want = _bracket_by_add(genus, w1, w2, seed, unoriented)
            assert fn(genus, w1, w2, seed=seed) == want, (genus, w1, w2, seed)


def test_long_brackets_match_term_by_term_assembly():
    # long pairs take the rank tables; periodic words tie rotations, and
    # genus 70 has letters past a signed byte
    rng = np.random.default_rng(89)
    cases = []
    for genus, n1, n2 in [(2, 48, 40), (3, 96, 64), (2, 128, 128), (3, 128, 100),
                          (70, 40, 48)]:
        letters = [k for k in range(-2 * genus, 2 * genus + 1) if k]
        cases.append((genus, *([int(x) for x in rng.choice(letters, size=n)]
                               for n in (n1, n2))))
    cases.append((2, [1, 2] * 20, [int(x) for x in rng.choice([1, 2, 3, -4], size=60)]))
    cases.append((2, [1] * 60 + [2], [2, 3] * 30))
    for genus, w1, w2 in cases:
        for unoriented in (False, True):
            fn = B.bracket_unoriented if unoriented else B.bracket_oriented
            want = _bracket_by_add(genus, w1, w2, 11, unoriented)
            assert fn(genus, w1, w2, seed=11) == want, (genus, len(w1), len(w2))


def _assert_keys_match_the_reference(genus, w1, w2):
    # the library and the oracle key one realization of the pair
    pair = P.realized_pair(genus, w1, w2)
    with mock.patch.object(P, "realized_pair", lambda *args: pair):
        for unoriented, fn in ((False, B.bracket_oriented), (True, B.bracket_unoriented)):
            assert fn(genus, w1, w2) == K.bracket(genus, w1, w2, unoriented), (
                genus, w1, w2, unoriented)


def test_keys_match_the_per_crossing_reference():
    # 3000 pairs at genus 1-3 of 1-64 letters, log-uniform in length:
    # random words, a rotation of w1^-1 before w2 (w1 cancels away),
    # inverse pieces of w1 at both ends of w2 (both junctions cancel),
    # and powers u^r (ties in the tables)
    rng = np.random.default_rng(181)
    for trial in range(3000):
        genus = 1 + trial % 3
        letters = [k for k in range(-2 * genus, 2 * genus + 1) if k]
        w1, w2 = ([int(x) for x in rng.choice(letters, size=int(65 ** rng.random()))]
                  for _ in range(2))
        k = int(rng.integers(0, len(w1) + 1))
        if trial % 4 == 1:
            w2 = (W.inverse_word(w1[k:] + w1[:k]) + w2)[:64]
        elif trial % 4 == 2:
            w2 = (W.inverse_word(w1[k:]) + w2[:8] + W.inverse_word(w1[:k // 2]))[:64]
        elif trial % 4 == 3:
            w1 = w1[:int(rng.integers(1, 5))] * int(rng.integers(2, 17))
        _assert_keys_match_the_reference(genus, w1, w2)


def test_goldman_long_keys_match_the_per_crossing_reference():
    rng = np.random.default_rng(191)
    for k in range(128):
        genus = 2 + k % 2
        _assert_keys_match_the_reference(
            genus, *(_reduced_word(rng, genus, n) for n in LENGTH_PAIRS[k // 2 % 8]))


# the branches of the key loop in bracket._counts, by the text of a line
# that runs only on that branch
_KEY_BRANCHES = {
    "nothing cancels": "a, n, word = n1, n12,",
    "the junction g|l cancels": "k += 1",
    "the cyclic junction l|g cancels": "m += 1",
    "a listed start is cut away": "tails1 = None",
    "several listed starts": "key = min(",
    "one listed start a side": "key = x if x < y else y",
    "scan": "key = W.least_rotation(word)",
    "one side cancels away": "key = _encode(W.canonical_cyclic(",
}


def _key_branches_run(genus, w1, w2, unoriented):
    """The names of the _KEY_BRANCHES that bracket._counts runs on the pair."""
    lines, start = inspect.getsourcelines(B._counts)
    at = {}
    for name, text in _KEY_BRANCHES.items():
        (hit,) = [start + k for k, line in enumerate(lines) if line.strip().startswith(text)]
        at[hit] = name
    seen = set()

    def line(frame, event, arg):
        if event == "line" and frame.f_lineno in at:
            seen.add(at[frame.f_lineno])
        return line

    outer = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code is B._counts.__code__ else None)
    try:
        B._counts(genus, w1, w2, unoriented)
    finally:
        sys.settrace(outer)
    return seen


def test_hand_cases_reach_every_branch_of_the_key_loop():
    cases = [
        # a1 against b1 on the torus: one crossing, so no tables
        ("unranked pair", 1, [1], [2], {"nothing cancels", "scan"}),
        # (a1 b1)^3 ties every rotation at each cut
        ("periodic word", 1, [1, 2] * 3, [2, -1, 2, 2, 2, 1], {"several listed starts"}),
        # w2 is w1^-1 b1 B2, so w1 cancels away where the rotations meet
        ("one side cancels away", 2, [4, -2, -3, -3, -2], [2, 3, 3, 2, -4, 2, -4],
         {"one side cancels away"}),
        # splices (4, 4) and (5, 3) cancel at both junctions
        ("both junctions cancel", 2, [4, -1, -3, -3, -2, 4], [1, -4, -4, 2, 3, 2],
         {"the junction g|l cancels", "the cyclic junction l|g cancels",
          "a listed start is cut away", "one listed start a side"}),
    ]
    reached = set()
    for name, genus, w1, w2, branches in cases:
        _, _, crossings = P.realized_pair(genus, w1, w2)
        ranked = 2 * len(crossings) >= 3 * (len(w1) + len(w2))
        assert ranked == (name != "unranked pair"), name
        if name == "both junctions cancel":
            assert {(i, j) for _, i, j in crossings
                    if w1[i - 1] == -w2[j] and w1[i] == -w2[j - 1]} == {(4, 4), (5, 3)}
        for unoriented in (False, True):
            seen = _key_branches_run(genus, w1, w2, unoriented)
            assert unoriented or branches <= seen, (name, branches - seen)
            reached |= seen
        _assert_keys_match_the_reference(genus, w1, w2)
    assert reached == set(_KEY_BRANCHES)


@st.composite
def _word_pairs(draw):
    """Genus 1-3 and two nonempty cyclically reduced words of <= 12 letters."""
    genus = draw(st.integers(1, 3))
    letter = st.integers(-2 * genus, 2 * genus).filter(bool)
    word = st.lists(letter, min_size=1, max_size=12).map(W.cyclic_reduce).filter(bool)
    return genus, draw(word), draw(word), draw(st.integers(0, 2 ** 31 - 1))


@settings(deadline=None)
@given(_word_pairs())
def test_unoriented_is_the_mean_of_two_oriented_brackets(case):
    # sign(p)/2 [(g_p l_p) - (g_p l_p^-1)] summed over crossings is half of
    # [u, v] + [u, v^-1]: reversing v flips each crossing's sign
    genus, u, v, seed = case
    twice = B.LoopSum([(w, 2 * c) for w, c in
                       B.bracket_unoriented(genus, u, v, seed=seed).items()])
    assert twice == (B.bracket_oriented(genus, u, v, seed=seed)
                     + B.bracket_oriented(genus, u, W.inverse_word(v), seed=seed + 1))


@st.composite
def _loopsum_pairs(draw):
    """Genus 1-3 and two LoopSums of 1-3 terms of <= 8 letters each, with
    coefficients of denominator <= 6."""
    genus = draw(st.integers(1, 3))
    letter = st.integers(-2 * genus, 2 * genus).filter(bool)
    word = st.lists(letter, min_size=1, max_size=8).map(W.cyclic_reduce).filter(bool)
    term = st.tuples(word, st.fractions(-3, 3, max_denominator=6).filter(bool))
    loopsum = st.lists(term, min_size=1, max_size=3).map(B.LoopSum)
    return genus, draw(loopsum), draw(loopsum)


@settings(deadline=None)
@given(_loopsum_pairs())
def test_bracket_sums_do_not_depend_on_the_seed(case):
    # bracket_sums lays each pair of terms out by futures whatever its
    # seed; every pair brackets to the same LoopSum in a seeded layout,
    # so the term-by-term Fraction sum over any seed's layouts agrees
    genus, x, y = case
    for unoriented in (False, True):
        got = B.bracket_sums(genus, x, y, seed=5, unoriented=unoriented)
        for seed in (0, 1, 2 ** 31 - 1):
            want = B.LoopSum()
            for w1, c1 in x.items():
                for w2, c2 in y.items():
                    part = L.bracket(genus, list(w1), list(w2), seed, unoriented)
                    want += B.LoopSum([(w, c1 * c2 * c) for w, c in part.items()])
            assert got == want, (seed, unoriented)


def _mapping_class(genus, kind, k, power):
    """Images of the positive letters under one generator of the mapping
    class group: T_b_k (a_k -> a_k b_k), T_a_k (b_k -> b_k A_k), each to
    the power +-1, or the handle shift (a_k, b_k -> a_k+1, b_k+1)."""
    images = {x: [x] for x in range(1, 2 * genus + 1)}
    a, b = 2 * k - 1, 2 * k
    if kind == "shift":
        images = {x: [(x + 1) % (2 * genus) + 1] for x in images}
    elif kind == "Tb":
        images[a] = [a, power * b]
    else:
        images[b] = [b, -power * a]
    return images


def _apply(images, word):
    return [y for x in word for y in (images[x] if x > 0 else W.inverse_word(images[-x]))]


def _equivariance_case(data, genera=(1, 2, 3)):
    """A genus of genera (1-3 by default), two words of <= 8 letters and
    a composition of 1-3 mapping class generators, read from 23 bytes:
    one draw is all an example costs Hypothesis, and zero bytes shrink
    to the first genus, empty words and T_a_1."""
    genus = genera[data[0] % len(genera)]
    letters = [x for k in range(1, 2 * genus + 1) for x in (k, -k)]
    words = [[letters[x % len(letters)] for x in data[at + 1:at + 1 + data[at] % 9]]
             for at in (1, 10)]
    steps = [_mapping_class(genus, ("Ta", "Tb", "shift")[x % 3], 1 + x // 6 % genus,
                            1 - 2 * (x // 3 % 2))
             for x in data[20:21 + data[19] % 3]]
    return genus, words, steps


@settings(max_examples=1000, deadline=None)
@given(st.binary(min_size=23, max_size=23).map(_equivariance_case))
def test_brackets_are_mapping_class_equivariant(case):
    # an automorphism phi of the free group that fixes the class of the
    # relator is a mapping class of the punctured surface, and the bracket
    # is natural: [phi w1, phi w2] = phi_*[w1, w2], exactly, for each
    # composition along the way
    genus, (w1, w2), steps = case
    relator = W.canonical_cyclic(W.relator(genus))
    want = [B.bracket_oriented(genus, w1, w2), B.bracket_unoriented(genus, w1, w2)]
    for images in steps:
        assert W.canonical_cyclic(_apply(images, W.relator(genus))) == relator
        w1, w2 = _apply(images, w1), _apply(images, w2)
        want = [B.LoopSum([(_apply(images, w), c) for w, c in ls.items()]) for ls in want]
        got = [B.bracket_oriented(genus, w1, w2), B.bracket_unoriented(genus, w1, w2)]
        assert got == want, (genus, w1, w2)


# the groups of perfbench's goldman-long workload and its word lengths
PAIR_GROUPS = ("GL(2,R)", "GL(2,C)", "GL(3,C)", "O(2,1)", "O(2,C)", "U(1,1)", "Sp(2,R)",
               "Sp(1,1)")
LENGTH_PAIRS = ((12, 32), (15, 27), (17, 24), (20, 20), (24, 17), (27, 15), (32, 12), (13, 31))


def _pair_reps(seed):
    """One representation of each pair group at genus 2 and 3, drawn as
    goldman-long draws its fixed ones (there at seed 2006)."""
    return {(group, genus): S.sample_representation(
        Z.parse_group_string(group), genus, np.random.default_rng([seed, genus, slot]))
        for slot, group in enumerate(PAIR_GROUPS) for genus in (2, 3)}


def _bracket_of(spec):
    # the bracket whose traces the Poisson side matches under spec
    return B.bracket_oriented if spec.kind in G.GL_KINDS else B.bracket_unoriented


def _terms(ls, rep):
    """(sum, sum of magnitudes) of c Re tr hol(w) over the terms c w of ls,
    read from its str keys as evaluate_many reads them."""
    keys = ls._keys()
    flat = np.frombuffer("".join(keys).encode("utf-32-le"), "<i4") - B._OFFSET
    traces = S.trace_functions([rep], flat, np.array([len(k) for k in keys], dtype=np.intp))
    parts = traces[0] * [ls._terms[k] / ls._den for k in keys]
    return float(parts.sum()), float(np.abs(parts).sum())


def _reduced_word(rng, genus, length):
    """A uniform cyclically reduced word of exactly length letters."""
    letters = [x for x in range(-2 * genus, 2 * genus + 1) if x]
    while True:
        word = []
        while len(word) < length:
            x = letters[int(rng.integers(len(letters)))]
            if not word or x != -word[-1]:
                word.append(x)
        if word[0] != -word[-1]:
            return word


def test_poisson_direct_matches_the_based_holonomy_reference():
    # change of basepoint against prefix times suffix products with F of
    # every based holonomy, over goldman-long's pairs and representations
    reps = _pair_reps(2006)
    rng = np.random.default_rng(167)
    for k in range(400):
        group, genus = PAIR_GROUPS[k % 8], 2 + k // 8 % 2
        rep = reps[group, genus]
        w1, w2 = (_reduced_word(rng, genus, n) for n in LENGTH_PAIRS[(k + k // 16) % 8])
        value, size = _terms(_bracket_of(rep.spec)(genus, w1, w2), rep)
        got, want = B.poisson_direct(rep, w1, w2), H.poisson_direct(rep, w1, w2)
        scale = 1 + abs(value) + size
        assert abs(got - want) <= 1e-10 * scale, (group, genus, w1, w2)


def test_poisson_direct_inverts_nothing(monkeypatch):
    # one representation of each form kind is sampled first (the sampler
    # and the letter table invert); then poisson_direct runs goldman-long
    # sized genus-2 pairs with every LAPACK inverse or solve made to raise
    forms = PAIR_GROUPS[3:]
    reps = [S.sample_representation(Z.parse_group_string(group), 2,
                                    np.random.default_rng([2006, 2, 3 + slot]))
            for slot, group in enumerate(forms)]
    rng = np.random.default_rng(181)
    cases = []
    for k, rep in enumerate(reps):
        w1, w2 = (_reduced_word(rng, 2, n) for n in LENGTH_PAIRS[k])
        cases.append((rep, w1, w2, *_terms(_bracket_of(rep.spec)(2, w1, w2), rep)))

    def refuse(*args, **kwargs):
        raise np.linalg.LinAlgError("no inverse on the Poisson side")

    for name in ("inv", "solve", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for rep, w1, w2, value, size in cases:
        got = B.poisson_direct(rep, w1, w2)
        assert abs(got - value) <= 1e-8 * (1 + abs(value) + size), (rep.spec, w1, w2)


def test_evaluation_and_poisson_side_are_mapping_class_equivariant():
    # rho∘phi maps w to rho(phi w), so evaluate() and poisson_direct of
    # phi w1, phi w2 under rho equal those of w1, w2 under rho∘phi.  The
    # two Poisson sides realize different pairs, and share no crossing
    reps = _pair_reps(173)
    rng = np.random.default_rng(179)
    cases = 0
    while cases < 200:
        genus, (w1, w2), steps = _equivariance_case(rng.bytes(23), genera=(2, 3))
        if not (W.cyclic_reduce(w1) and W.cyclic_reduce(w2)):
            continue
        rep = reps[PAIR_GROUPS[cases % 8], genus]
        phi = {x: [x] for x in range(1, 2 * genus + 1)}
        for images in steps:
            phi = {x: _apply(images, w) for x, w in phi.items()}
        pulled = S.Representation(rep.spec, genus, [S.holonomy(rep, phi[x]) for x in phi])
        v1, v2 = _apply(phi, w1), _apply(phi, w2)
        moved, kept = (_bracket_of(rep.spec)(genus, *pair) for pair in ((v1, v2), (w1, w2)))
        scale = 1 + max(_terms(moved, rep)[1], _terms(kept, pulled)[1])
        assert abs(moved.evaluate(rep) - kept.evaluate(pulled)) <= 1e-9 * scale, (w1, w2)
        direct = B.poisson_direct(rep, v1, v2)
        assert abs(direct - B.poisson_direct(pulled, w1, w2)) <= 1e-9 * scale, (w1, w2)
        cases += 1


def test_evaluate_rejects_out_of_range_letter():
    rep = S.sample_representation(GL2R, 1, np.random.default_rng(79))
    with pytest.raises(W.WordError):
        B.LoopSum([([1, 2], 1), ([3], 2)]).evaluate(rep)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_out_of_range_letters_raise_where_they_cancel(genus):
    # letters are checked as given, before reduction drops a cancelling pair
    rep = S.sample_representation(GL2R, genus, np.random.default_rng(97))
    past = 2 * genus + 1
    pairs = [([1, past, -past], [2]), ([past, 1, -past], [2]), ([2], [-past, past]),
             ([1], [0, 0, 2]), ([1, 2, -2 - 2 * genus, 2 + 2 * genus], [1, 2])]
    for w1, w2 in pairs:
        for call in (B.bracket_oriented, B.bracket_unoriented):
            with pytest.raises(W.WordError):
                call(genus, w1, w2)
        with pytest.raises(W.WordError):
            B.poisson_direct(rep, w1, w2)
        with pytest.raises(W.WordError):
            B.poisson_direct(rep, w2, w1)


def test_representative_independence_small():
    rng = np.random.default_rng(43)
    rep = S.sample_representation(GL2C, 2, rng)
    w1, w2 = [1, 2], [3, -1]
    base = B.bracket_oriented(2, w1, w2, seed=47).evaluate(rep)
    for v1, v2 in zip(homotopy_variants(w1, 2, rng, 4),
                      homotopy_variants(w2, 2, rng, 4)):
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


def _reference(terms):
    # the sum as a plain dict of canonical int tuple words to Fractions
    ref = {}
    for word, coef in terms:
        key = W.canonical_cyclic(list(word))
        c = ref.get(key, 0) + Fraction(coef)
        if c:
            ref[key] = c
        else:
            ref.pop(key, None)
    return ref


def _check_against(ls, ref):
    assert ls.terms == ref
    assert ls.items() == sorted(ref.items(), key=lambda kv: (len(kv[0]), kv[0]))


# int, Fraction and str coefficients of denominator 1-12, and floats
_COEFS = st.one_of(st.integers(-6, 6),
                   st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
                   st.builds("{}/{}".format, st.integers(-12, 12), st.integers(1, 12)),
                   st.integers(-48, 48).map(lambda n: n / 16),
                   st.floats(-2, 2))
# few letters, so that terms meet and cancel; [] and [1, -1] are the trivial class
_TERMS = st.lists(st.tuples(st.lists(st.sampled_from([1, -1, 2, -2, 3]), max_size=4),
                            _COEFS), max_size=12)


@settings(deadline=None)
@given(_TERMS, _TERMS, st.booleans())
@example([([1], Fraction(1, 2)), ([1], "1/2")], [([1], 1)], False)
@example([([1], Fraction(1, 3)), ([1], Fraction(1, 6))], [([1], 0.5)], False)
@example([([], 2), ([1, -1], Fraction(-4, 2)), ([2], 0)], [([1], Fraction(1, 7))], False)
def test_loopsum_matches_a_fraction_dict(xs, ys, cancel):
    if cancel:
        xs = xs + [(w, -Fraction(c)) for w, c in xs]
    x = B.LoopSum()
    for word, coef in xs:
        x.add(word, coef)
    y = B.LoopSum(ys)
    rx, ry = _reference(xs), _reference(ys)
    _check_against(x, rx)
    _check_against(y, ry)
    _check_against(x + y, _reference(xs + ys))
    assert (x == y) == (rx == ry)
    assert x == B.LoopSum(rx.items()) and x + y == y + x
    if cancel:
        assert x == B.LoopSum() and x.items() == []


def test_a_20000_term_sum_of_mixed_denominators_matches_a_fraction_dict():
    rng = np.random.default_rng(103)
    letters = [1, -1, 2, -2, 3, -3, 4, -4]
    terms = [([int(x) for x in rng.choice(letters, size=int(rng.integers(0, 7)))],
              Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13))))
             for _ in range(20000)]
    ref = _reference(terms)
    ls = B.LoopSum(terms)
    assert len(ref) > 1000
    _check_against(ls, ref)
    assert ls == B.LoopSum(ref.items())


def test_fractions_are_built_only_where_coefficients_enter_or_leave(monkeypatch):
    # the brackets, + and evaluation work on integer counts over one
    # denominator; a Fraction is made per coefficient added or read out
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(B, "Fraction", Counted)
    x = B.LoopSum([([1, 2], Fraction(1, 3)), ([3, -1], Fraction(-5, 6))])
    y = B.LoopSum([([4, 3, 3], 2), ([1, 2, -3], Fraction(1, 2))])
    assert len(built) == 4
    rep = S.sample_representation(GL2R, 2, np.random.default_rng(101))
    built.clear()
    sums = [B._bracket(2, [1, 2, -3], [4, 3, 3], unoriented) for unoriented in (False, True)]
    sums += [B.bracket_sums(2, x, y, unoriented=unoriented) for unoriented in (False, True)]
    sums.append(sums[1] + sums[3])
    B.evaluate_many(sums, [rep])
    assert built == []
    items = sums[-1].items()
    assert items and len(built) == len(items)
    built.clear()
    assert len(sums[-1].terms) == len(built)


def test_terms_is_a_fresh_int_tuple_dict_that_cannot_be_assigned():
    ls = B.bracket_unoriented(2, [1, 2, -3], [4, 3, 3])
    terms = ls.terms
    assert terms and all(type(w) is tuple and all(type(x) is int for x in w)
                         for w in terms)
    assert sorted(terms.items(), key=lambda kv: (len(kv[0]), kv[0])) == ls.items()
    terms.clear()
    assert ls.terms  # a copy: clearing it leaves the sum as it was
    with pytest.raises(AttributeError):
        ls.terms = {}


def test_letter_past_the_key_limit_raises_word_error():
    limit = 0x77FFF  # genus 245759 holds the whole letter range
    ls = B.LoopSum()
    ls.add([limit, 1, -limit, 2], 1)
    assert ls.terms == {(-limit, 2, limit, 1): Fraction(1)}
    for word in ([limit + 1], [2, -(limit + 1)]):
        with pytest.raises(W.WordError):
            B.LoopSum().add(word, 1)
    top = 2 * 245759
    for unoriented in (False, True):
        for w1, w2 in (([1, top], [top - 1, 2]), ([top, -1], [1, top - 1, -top])):
            want = _bracket_by_add(245759, w1, w2, 0, unoriented)
            assert want.terms
            assert B._bracket(245759, w1, w2, unoriented) == want
            assert L.bracket(245759, w1, w2, 0, unoriented) == want
    # small letters key at any genus
    assert B.bracket_oriented(300000, [1], [2]).terms == {(1, 2): Fraction(1)}
    with pytest.raises(W.WordError):
        B.bracket_oriented(300000, [1], [2 * 300000 - 1])
    with pytest.raises(W.WordError):
        B.bracket_unoriented(300000, [1, 2 * 245760], [2])


def test_realized_pair_deterministic():
    # the layout is a pure function of the pair: two calls give equal
    # chords and crossings
    a = P.realized_pair(2, [1, 2, -3, 4, 1], [4, 3, -2])
    b = P.realized_pair(2, [1, 2, -3, 4, 1], [4, 3, -2])
    assert a[2] and (a[0].chords, a[1].chords, a[2]) == (b[0].chords, b[1].chords, b[2])


def test_poisson_direct_ignores_its_seed():
    # seed is accepted and changes nothing: the pair alone fixes the layout
    for spec, genus, w1, w2 in [(GL2C, 2, [1, 2, -3, 4, 1], [4, 3, -2]),
                                (O2, 3, [5, -1, 2, 6], [1, 1, -6, 3])]:
        rep = S.sample_representation(spec, genus, np.random.default_rng(109))
        values = [B.poisson_direct(rep, w1, w2, seed=seed) for seed in (0, 1, 2 ** 31 - 1)]
        assert values[0] != 0.0
        assert len({np.float64(v).tobytes() for v in values}) == 1


def test_evaluate_of_the_empty_sum_is_a_float():
    rep = S.sample_representation(GL2R, 1, np.random.default_rng(83))
    value = B.LoopSum().evaluate(rep)
    assert type(value) is float and value == 0.0
    assert type(B.bracket_oriented(1, [1], [1]).evaluate(rep)) is float


def test_evaluate_many_is_evaluate_of_each_sum_under_each_rep():
    # d = 2 and d = 4: at d >= 4 np.trace of a single column sums the
    # diagonal in numpy's pairwise order, which no batch may follow
    for spec in (GL2C, Z.parse_group_string("Sp(1,1)")):
        reps = [S.sample_representation(spec, 2, np.random.default_rng([89, i]))
                for i in range(3)]
        sums = [B.bracket_oriented(2, [1, 2, -3], [4, 3, 3]), B.LoopSum(),
                B.LoopSum([([1, -2], Fraction(1, 3))]),
                B.bracket_unoriented(2, [1, 2], [-4, 3, 1])]
        got = B.evaluate_many(sums, reps)
        assert got.shape == (4, 3)
        want = np.array([[ls.evaluate(rep) for rep in reps] for ls in sums])
        # one word's trace does not depend on the batch it is in
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        assert np.all(got[1] == 0.0) and not np.signbit(got[1]).any()
        assert B.evaluate_many(sums, []).shape == (4, 0)
        assert B.evaluate_many([], reps).shape == (0, 3)
        assert B.evaluate_many([B.LoopSum()], reps).tolist() == [[0.0] * 3]
    other_genus = S.Representation(GL2C, 1, [np.eye(2)] * 2)
    other_size = S.Representation(Z.parse_group_string("GL(3,C)"), 2, [np.eye(3)] * 4)
    for odd in (other_genus, other_size):
        with pytest.raises(ValueError):
            B.evaluate_many(sums, reps[:1] + [odd])
        with pytest.raises(ValueError):
            B.evaluate_many([B.LoopSum()], [odd] + reps)
    assert type(sums[0].evaluate(reps[0])) is float
