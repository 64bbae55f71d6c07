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

import sampler_reference as R

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
    # these seeds drive a Gauss-Newton line search onto a singular iterate;
    # none of their trial points overflows (see the next test for that)
    rng = np.random.default_rng([seed, genus, 99])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = S.sample_representation(spec, genus, rng)
    assert S.relator_residual(rep) < 1e-11
    for m in rep.images:
        assert G.membership_residual(spec, m) < 1e-9


@pytest.mark.parametrize("spec", [GL2R, G.GroupSpec("O_pq", 3, 2, 1)],
                         ids=["GL(2,R)", "O(2,1)"])
def test_overflowing_line_search_trials_stay_silent(monkeypatch, spec):
    # the first Gauss-Newton step, scaled by 1e4, sends the first trials
    # of its line search past the double range; the line search's errstate
    # keeps that overflow silent under warnings-as-errors, and the halved
    # steps still reach a representation
    lstsq, lone_expm = np.linalg.lstsq, G.expm
    steps, overflowed = [], []

    def huge_first_step(*args, **kwargs):
        coef, *rest = lstsq(*args, **kwargs)
        steps.append(coef)
        return (coef * 1e4 if len(steps) == 1 else coef, *rest)

    def watched_expm(a):
        out = lone_expm(a)
        if not np.isfinite(out).all():
            overflowed.append(a)
        return out

    monkeypatch.setattr(np.linalg, "lstsq", huge_first_step)
    monkeypatch.setattr(G, "expm", watched_expm)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = S.sample_representation(spec, 2, np.random.default_rng(5))
    assert overflowed and len(steps) > 1
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
    jac = S._relator_jacobian(a, b, c, basis, S._relator_parts(a, b, c))

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


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("group", SURVEY_GROUPS)
def test_sampler_survey(group, genus):
    # every seed gives a representation: a RelatorError fails the case
    spec = Z.parse_group_string(group)
    for seed in range(20):
        rng = np.random.default_rng([seed, genus])
        rep = S.sample_representation(spec, genus, rng)
        assert S.relator_residual(rep) <= 1e-11, seed
        for m in rep.images:
            assert np.isfinite(m).all(), seed
            assert G.membership_residual(spec, m) < 1e-9, seed


BITWISE_GROUPS = SURVEY_GROUPS + ("GL(3,C)", "U(2)", "O(3)")


def _check_reference_bits(spec, genus, seed):
    """sample_representation has the reference's images, inverses and
    error, and leaves the generator where the reference does."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        want = R.sample_images(spec, genus, ref)
    except W.RelatorError:
        with pytest.raises(W.RelatorError):
            S.sample_representation(spec, genus, rng)
    else:
        got = S.sample_representation(spec, genus, rng).letters
        assert got.tobytes() == R.letters(spec, want).tobytes(), (genus, seed)
    assert rng.bit_generator.state == ref.bit_generator.state, (genus, seed)


@pytest.mark.parametrize("group", BITWISE_GROUPS)
def test_sampler_keeps_the_reference_bits(group):
    # one draw per try and the batched expm, inverses and products change
    # no bit of any sample: seven kinds plus d = 3 and compact groups
    spec = Z.parse_group_string(group)
    for genus in (1, 2, 3, 4):
        for seed in range(12):
            _check_reference_bits(spec, genus, [seed, genus])


def test_sampler_keeps_the_reference_bits_on_singular_and_overflowing_searches():
    # the seeds of test_singular_line_search_iterate_starts_a_fresh_try
    for spec, genus, seed in [(G.GroupSpec("O_pq", 3, 2, 1), 2, 30),
                              (G.GroupSpec("O_pq", 3, 2, 1), 2, 211),
                              (SP2, 3, 3), (SP2, 3, 189)]:
        _check_reference_bits(spec, genus, [seed, genus, 99])


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
        base = G.invariant_f(S.holonomy(rep, w))
        for v in homotopy_variants(w, genus, rng, 12):
            got = G.invariant_f(S.holonomy(rep, v))
            assert abs(got - base) < 1e-8 * (1 + abs(base))


KERNEL_GROUPS = ("GL(2,R)", "GL(2,C)", "O(2,1)", "O(3,C)", "U(1,1)", "Sp(2,R)",
                 "Sp(1,1)", "GL(3,C)")  # d = 2, 3 and 4


def _traces(rep, words):
    """trace_functions of a list of words under one rep, as a list."""
    return S.trace_functions([rep], np.array([x for w in words for x in w], dtype=np.intp),
                             np.array([len(w) for w in words], dtype=np.intp))[0].tolist()


def test_trace_functions_match_word_by_word():
    rng = np.random.default_rng(39)
    for spec, genus in [(GL2R, 1), (GL2C, 2), (U2, 2)]:
        rep = S.sample_representation(spec, genus, rng)
        letters = [k for k in range(-2 * genus, 2 * genus + 1) if k]
        words = [[], [1], (2, -1)] + [
            [int(x) for x in rng.choice(letters, size=int(rng.integers(0, 9)))]
            for _ in range(40)]
        got = _traces(rep, words)
        want = [G.invariant_f(S.holonomy(rep, list(w))) for w in words]
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
            got = np.array(_traces(rep, words))
            want = np.array([G.invariant_f(S.holonomy(rep, list(w)))
                             for w in words])
            assert got[0] == got[4] == spec.matrix_dim, group
            # the roundoff of a trace is relative to the holonomy it sums,
            # which is far larger than the trace when the diagonal cancels
            size = np.array([np.linalg.norm(S.holonomy(rep, list(w))) for w in words])
            assert np.all(abs(got - want) <= 1e-13 * (1 + size)), group
            assert _traces(rep, [[], []]) == [spec.matrix_dim] * 2
    assert _traces(rep, []) == []
    with pytest.raises(W.WordError):
        _traces(rep, [[1], [1, 2 * genus + 1]])
    with pytest.raises(W.WordError):
        _traces(rep, [[0]])
    with pytest.raises(W.WordError):
        _traces(rep, [[2, 1], [-(2 * genus + 1)]])


def test_trace_functions_overflow_is_non_finite_not_an_error():
    # tier-1 turns RuntimeWarning into an error, so a warning would raise
    rep = S.Representation(GL2R, 1, [np.diag([1e200, 1.0]), np.eye(2)])
    words = [[1, 1], [1], [], [1, -2, 1, 1, 2]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _traces(rep, words)
        want = _multiply_add_traces(rep, words)
    assert np.isinf(got[0]) and not np.isfinite(got[3])
    assert got[1:3] == [1e200, 2.0]
    assert _same_bits(np.array(got), want)


def _multiply_add_traces(rep, words):
    """The oracle for the fused kernel: one batch of words under one rep,
    and d elementwise multiply-adds per letter position.  The trace adds
    the diagonal left to right from 0.0, as np.trace does on two or more
    columns; on one column at d >= 4 numpy reduces it pairwise."""
    n = max(map(len, words), default=0)
    cols = np.zeros((n, len(words)), dtype=np.intp)
    for w, word in enumerate(words):
        cols[n - len(word):, w] = word
    table = np.moveaxis(rep.letters, 0, -1)
    d = table.shape[0]
    h = np.broadcast_to(table[..., :1], (d, d, len(words)))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            a = table[..., cols[k]]
            new = a[:, :1] * h[:1]
            for j in range(1, d):
                new += a[:, j:j + 1] * h[j:j + 1]
            h = new
        trace = np.zeros(len(words))
        for i in range(d):
            trace += h[i, i].real
        if len(words) > 1:
            assert _same_bits(trace, np.trace(h).real)
    return trace


def _same_bits(x, y):
    return (np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x), np.signbit(y)))


def _signed_zero_images(rng, genus, d):
    """Images with entries spread over twelve decades, in which about a
    third of the imaginary parts and of the off-diagonal real parts are
    exact +0.0 or -0.0; the real diagonal is shifted by 1e7, so that no
    zero row makes one singular."""
    out = []
    for _ in range(2 * genus):
        m = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * 10.0 ** rng.integers(
            -6, 7, size=(d, d))
        zeros = rng.choice([0.0, -0.0], size=(2, d, d))
        m.real = np.where(rng.random((d, d)) < 0.3, zeros[0], m.real)
        m.imag = np.where(rng.random((d, d)) < 0.3, zeros[1], m.imag)
        out.append(m + 1e7 * np.eye(d))
    return out


@pytest.mark.parametrize("group", ["GL(1,C)", "GL(2,R)", "O(3,C)", "Sp(1,1)", "GL(9,C)",
                                   "GL(53,C)"])
def test_fused_kernel_keeps_the_bits_of_the_multiply_adds(group):
    # d = 1, 2, 3, 4, 9 and 53: a product over d > 8 terms would show
    # numpy's pairwise summation, were the reduced axis ever the inner
    # loop, and at d = 53 the columns go through in blocks of three
    spec = Z.parse_group_string(group)
    d = spec.matrix_dim
    rng = np.random.default_rng(d)
    for genus in (1, 2):
        alphabet = [k for k in range(-2 * genus, 2 * genus + 1) if k]
        reps = [S.Representation(spec, genus, _signed_zero_images(rng, genus, d))
                for _ in range(3)]
        if d < 53:
            reps.append(S.sample_representation(spec, genus, rng))
        # unsorted mixed lengths, empty words among them, some unreduced
        count, top = (4, 4) if d == 53 else (64, 13)
        words = [[], [1, -1]] + [
            [int(x) for x in rng.choice(alphabet, size=int(rng.integers(0, top)))]
            for _ in range(count - 2)]
        for batch in (words[:1], words[3:4], words[:2], words[2:4], words):
            flat = np.array([x for w in batch for x in w], dtype=np.intp)
            lengths = np.array(list(map(len, batch)), dtype=np.intp)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = S.trace_functions(reps, flat, lengths)
            assert got.shape == (len(reps), len(batch))
            for row, rep in zip(got, reps):
                want = _multiply_add_traces(rep, batch)
                assert _same_bits(row, want), (genus, len(batch))
                # one rep alone: a batch of one word is then one column
                assert _same_bits(S.trace_functions([rep], flat, lengths)[0], want)


def test_evaluate_memory_stays_bounded_at_the_largest_gl():
    # 60 words of 20 letters under GL(53,C), the largest GL(n,C) that
    # groups.MAX_ENTRIES admits: the multiply-add kernel peaked at 11 MB
    # of tracemalloc here, and a fused product over all columns at once
    # at 151 MB
    import tracemalloc

    from loopbracket import bracket as B

    spec = Z.parse_group_string("GL(53,C)")
    rng = np.random.default_rng(53)
    a, b = (np.linalg.qr(rng.normal(size=(53, 53)) + 1j * rng.normal(size=(53, 53)))[0]
            for _ in range(2))
    rep = S.Representation(spec, 1, [a, b])
    ls = B.LoopSum()
    while len(ls.items()) < 60:
        w = [int(rng.choice([1, 2, -1, -2]))]
        while len(w) < 20:
            x = int(rng.choice([1, 2, -1, -2]))
            if x != -w[-1] and (len(w) < 19 or x != -w[0]):
                w.append(x)
        ls.add(w, 1)
    assert {len(w) for w, _ in ls.items()} == {20}
    tracemalloc.start()
    try:
        value = ls.evaluate(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak <= 2 * 11e6


def test_a_block_holds_one_column_of_every_admitted_group():
    sizes = []
    for kind in G.KINDS:
        for n in range(1, 200):
            try:
                sizes.append(G.GroupSpec(kind, n, *((n, 0) if kind in ("O_pq", "U_pq", "Sp_pq")
                                                    else ())).matrix_dim)
            except G.GroupError:
                pass
    assert max(sizes) == 76 and 76 ** 3 <= S._BLOCK


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
                 "evaluate_many": lambda: B.evaluate_many(
                     [B.LoopSum(), B.LoopSum([([1, x], 1)])], [rep, rep]),
                 "perturbed": lambda: T.perturbed_holonomy(rep, pert, [x]),
                 "rk4_perturbed": lambda: T.rk4_perturbed_holonomy(rep, pert, [x]),
                 "poisson_direct": lambda: B.poisson_direct(rep, [1], [x]),
                 "prefix_holonomies": lambda: S.prefix_holonomies(rep, [1, x])}
        for call in calls.values():
            with pytest.raises(W.WordError):
                call()


@pytest.mark.parametrize("group", ["GL(2,R)", "GL(3,C)", "O(2,1)", "U(1,1)", "Sp(2,R)", "Sp(1,1)"])
def test_prefix_holonomies_are_the_holonomies_of_the_prefixes_and_their_inverses(group):
    spec = Z.parse_group_string(group)
    eye = np.eye(spec.matrix_dim)
    for genus in (2, 3):
        rng = np.random.default_rng([151, genus])
        rep = S.sample_representation(spec, genus, rng)
        pre, inv = S.prefix_holonomies(rep, [])
        assert pre.shape == inv.shape == (1, *eye.shape)
        assert np.array_equal(pre[0], eye) and np.array_equal(inv[0], eye)
        letters = [x for x in range(-2 * genus, 2 * genus + 1) if x]
        for length in (1, 5, 17, 32):
            word = [int(x) for x in rng.choice(letters, size=length)]
            pre, inv = S.prefix_holonomies(rep, word)
            assert pre.shape == inv.shape == (length + 1, *eye.shape)
            for k in range(length + 1):
                # the same products in the same order as holonomy's, so
                # every prefix keeps its bits, the whole word's among them
                assert pre[k].tobytes() == S.holonomy(rep, word[:k]).tobytes()
                scale = np.linalg.norm(pre[k], 2) * np.linalg.norm(inv[k], 2)
                assert np.linalg.norm(pre[k] @ inv[k] - eye, 2) <= 1e-12 * scale, (k, word)


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
