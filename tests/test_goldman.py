import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopbracket import bracket as B
from loopbracket import groups as G
from loopbracket import polygon as P
from loopbracket import serialize as Z
from loopbracket import surface as S
from loopbracket import words as W
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
            perm = P.slot_permutation(size, seed)
            assert sorted(perm) == list(range(size))
            random.seed(seed + 1)  # the global generator plays no part
            random.random()
            assert P.slot_permutation(size, seed) == perm
    assert len({tuple(P.slot_permutation(16, s)) for s in range(8)}) == 8
    # Python keeps the stream of a seeded random.Random across versions
    assert P.slot_permutation(8, 0) == [0, 3, 4, 7, 1, 2, 5, 6]


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
    a, b, crossings = P.realized_pair(1, [1], [2], seed=0)
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
    assert [(x.sign, x.seg_first, x.seg_second) for x in crossings] == [(1, 0, 0)]


def test_realize_reduces_and_spells_word():
    loop, empty, crossings = P.realized_pair(2, [1, 3, -3, 2], [1, 2, -2, -1],
                                             seed=1)
    assert loop.word == (1, 2)
    assert empty.word == () and empty.chords == []  # no chords
    assert crossings == []
    width = 4 * 2 + 1
    # chord j exits through the side of word[j], and re-enters through
    # the side glued to the exit side of word[j-1]
    for j, (start, end) in enumerate(loop.chords):
        assert end // width == P.exit_side_for_letter(2, loop.word[j])
        assert start // width == P.exit_side_for_letter(2, -loop.word[j - 1])
        assert end % width % 2 == 1 and start % width % 2 == 0
        assert 0 < end % width < width and 0 < start % width < width


def _float_crossings(first, second, width):
    """Reference: plane-geometry intersection of the two chord chains.

    Returns (seg_first, seg_second, sign, point) for every pair of chords
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
        c1, c2, crossings = P.realized_pair(genus, *words, seed=trial)
        width = 4 * (len(c1.word) + len(c2.word)) + 1
        want = _float_crossings(c1, c2, width)
        got = [(x.seg_first, x.seg_second, x.sign) for x in crossings]
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
        assert P.realized_pair(genus, [], [1, 2, -1, -2], seed=3)[2] == []
        assert P.realized_pair(genus, [1, 2, -1, -2], [], seed=3)[2] == []


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
        for seed in range(5):
            c1, c2, _ = P.realized_pair(genus, w1, w2, seed)
            ends = [p for c in c1.chords + c2.chords for p in c]
            assert len(ends) == 2 * (len(c1.word) + len(c2.word))
            assert len(set(ends)) == len(ends), (genus, w1, w2, seed)
            sums.add(tuple(B.bracket_oriented(genus, w1, w2, seed).items()))
        assert len(sums) == 1, (genus, w1, w2)


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
    c1, c2, crossings = P.realized_pair(2, [1, 2, 3], [4, -1], seed=11)
    fwd, bwd = B.LoopSum(), B.LoopSum()
    for x in crossings:
        g, l = _based(c1, x.seg_first), _based(c2, x.seg_second)
        fwd.add(g + l, x.sign)
        bwd.add(l + g, -x.sign)
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


ALL_KINDS = ("GL(2,R)", "GL(2,C)", "O(2,1)", "O(3,C)", "U(1,1)", "Sp(2,R)",
             "Sp(1,1)", "GL(3,C)")


def test_poisson_direct_matches_letter_by_letter_holonomies():
    # shared prefix/suffix products against one S.holonomy per based word
    rng = np.random.default_rng(71)
    cases = [(GL2R, 1), (GL2C, 2), (O2, 2), (U2, 3)] + [
        (Z.parse_group_string(group), 1 + k % 3) for k, group in enumerate(ALL_KINDS)]
    for spec, genus in cases:
        rep = S.sample_representation(spec, genus, rng)
        letters = [k for k in range(-2 * genus, 2 * genus + 1) if k]
        for trial in range(4):
            w1, w2 = (W.cyclic_reduce([int(x) for x in rng.choice(letters, size=n)])
                      for n in (12, 9))
            seed = 73 + trial
            c1, c2, crossings = P.realized_pair(genus, w1, w2, seed)
            terms = [x.sign * G.pairing(
                G.variation(spec, S.holonomy(rep, _based(c1, x.seg_first))),
                G.variation(spec, S.holonomy(rep, _based(c2, x.seg_second))))
                for x in crossings]
            got = B.poisson_direct(rep, w1, w2, seed=seed)
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
    class of g_i l_j, with and without rank tables, on int tuple keys and,
    where the letters fit, on byte keys."""
    if not g or not l:
        return
    codecs = [B._TUPLES] + ([B._BYTES] if max(map(abs, g + l)) < 128 else [])
    sides = [(codec, B._side(tuple(g), codec[0], ranked), B._side(tuple(l), codec[0], ranked))
             for codec in codecs for ranked in (False, True)]
    for i in range(len(g)):
        for j in range(len(l)):
            want = _naive_class(g[i:] + g[:i] + l[j:] + l[:j])
            for (encode, decode), first, second in sides:
                got = decode(B._splice_key(first, second, i, j, encode))
                assert got == want, (g, l, i, j, first[3] is not None)


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
    c1, c2, crossings = P.realized_pair(genus, word1, word2, seed)
    for x in crossings:
        g = _based(c1, x.seg_first)
        l = _based(c2, x.seg_second)
        if unoriented:
            out.add(g + l, Fraction(x.sign, 2))
            out.add(g + W.inverse_word(l), Fraction(-x.sign, 2))
        else:
            out.add(g + l, x.sign)
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
    """Genus 1-3 and two LoopSums of 1-3 terms of <= 8 letters each."""
    genus = draw(st.integers(1, 3))
    letter = st.integers(-2 * genus, 2 * genus).filter(bool)
    word = st.lists(letter, min_size=1, max_size=8).map(W.cyclic_reduce).filter(bool)
    term = st.tuples(word, st.integers(-3, 3).filter(bool))
    loopsum = st.lists(term, min_size=1, max_size=3).map(B.LoopSum)
    return genus, draw(loopsum), draw(loopsum)


@settings(deadline=None)
@given(_loopsum_pairs())
def test_bracket_sums_do_not_depend_on_the_seed(case):
    # the seed only picks each pair's layout, and every pair of terms
    # brackets to the same LoopSum in any layout
    genus, x, y = case
    for unoriented in (False, True):
        first, *rest = (B.bracket_sums(genus, x, y, seed=seed, unoriented=unoriented)
                        for seed in (0, 1, 2 ** 31 - 1))
        assert all(other == first for other in rest)


def test_evaluate_rejects_out_of_range_letter():
    rep = S.sample_representation(GL2R, 1, np.random.default_rng(79))
    with pytest.raises(W.WordError):
        B.LoopSum([([1, 2], 1), ([3], 2)]).evaluate(rep)


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


def test_realized_pair_deterministic():
    a = B.bracket_oriented(2, [1, 2, -3], [4, 3], seed=67)
    b = B.bracket_oriented(2, [1, 2, -3], [4, 3], seed=67)
    assert a == b


def test_evaluate_of_the_empty_sum_is_a_float():
    rep = S.sample_representation(GL2R, 1, np.random.default_rng(83))
    value = B.LoopSum().evaluate(rep)
    assert type(value) is float and value == 0.0
    assert type(B.bracket_oriented(1, [1], [1]).evaluate(rep)) is float
