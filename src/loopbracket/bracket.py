"""Bracket of free homotopy classes of loops on a closed surface.

A LoopSum is a finite formal sum of classes with exact rational
coefficients, keyed by the canonical cyclic form of the word.  The
oriented bracket of two classes sums sign(p) (gamma_p lambda_p) over the
transverse crossings p of generic PL representatives; the unoriented
variant takes sign(p)/2 [(gamma_p lambda_p) - (gamma_p lambda_p^-1)].

Evaluation sends a class to Re tr of its holonomy, and poisson_direct
computes the matching Poisson-side sum sign(p) <F(H_p(gamma)),
F(H_p(lambda))> from a fresh realization, so the two routes share no
geometry.

The bracket itself is exact combinatorics and imports only the standard
library; evaluate and poisson_direct import the numeric modules when
they are called.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING

from . import polygon as P
from . import words as W

if TYPE_CHECKING:
    from .surface import Representation


class LoopSum:
    """Formal rational combination of free homotopy classes."""

    def __init__(self, terms=None):
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for word, coef in terms:
                self.add(word, coef)

    def add(self, word, coef):
        self._add_key(W.canonical_cyclic(list(word)), Fraction(coef))

    def _add_key(self, key, coef: Fraction):
        """Add coef to an already canonical key, dropping a zero sum."""
        c = self.terms.get(key, 0) + coef
        if c == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = c

    def __add__(self, other):
        out = LoopSum()
        out.terms = dict(self.terms)
        for key, coef in other.terms.items():
            out._add_key(key, coef)
        return out

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __eq__(self, other):
        return isinstance(other, LoopSum) and self.terms == other.terms

    def __repr__(self):
        inner = ", ".join(f"{c} * {W.format_word(w) or '1'}" for w, c in self.items())
        return f"LoopSum({inner})"

    def evaluate(self, rep: Representation) -> float:
        from .surface import trace_functions

        items = self.items()
        traces = trace_functions(rep, [w for w, _ in items])
        return sum((float(c) * f for (_, c), f in zip(items, traces)), 0.0)


def _bracket(genus: int, word1, word2, seed: int, unoriented: bool) -> LoopSum:
    c1, c2, crossings = P.realized_pair(genus, word1, word2, seed)
    out = LoopSum()
    if not crossings:
        return out  # disjoint loops, among them the trivial class, commute
    # the tails tables and byte keys are built once per pair and save a
    # scan on each term; below two terms a letter they cost more than that
    ranked = len(crossings) >= 2 * (len(c1.word) + len(c2.word))
    encode, decode = _BYTES if ranked and 2 * genus < 128 else _TUPLES
    first, second = _side(c1.word, encode, ranked), _side(c2.word, encode, ranked)
    if unoriented:
        # l_p^-1 is the rotation of w2^-1 at n2 - j
        n2, inverse = len(c2.word), _side(tuple(W.inverse_word(c2.word)), encode, ranked)
    signs: dict[bytes | tuple[int, ...], int] = {}
    for sign, i, j in crossings:
        key = _splice_key(first, second, i, j, encode)
        signs[key] = signs.get(key, 0) + sign
        if unoriented:
            key = _splice_key(first, inverse, i, -j % n2, encode)
            signs[key] = signs.get(key, 0) - sign
    den = 2 if unoriented else 1
    out.terms = {decode(key): _fraction(c, den) for key, c in signs.items() if c}
    return out


# one Fraction per distinct count; a Fraction is immutable, so all share it
_fraction = lru_cache(maxsize=1024)(Fraction)

# x + 128 <-> x as a signed byte: the same flip of the high bit both ways
_FLIP = bytes(range(128, 256)) + bytes(range(128))


def _encode_bytes(word) -> bytes:
    return bytes([x + 128 for x in word])


def _decode_bytes(key: bytes) -> tuple[int, ...]:
    return tuple(memoryview(key.translate(_FLIP)).cast("b"))


# (encode, decode) between words and the term keys of one bracket.  Byte
# keys, the letters x + 128, order, slice and hash like the word but in C;
# they need 2 genus < 128, and pay for their encoding only over many terms.
_BYTES = _encode_bytes, _decode_bytes
_TUPLES = tuple, tuple


def _side(word: tuple, encode, ranked: bool):
    """(n, letters, codes, tails) of one word of a pair.

    Letters and codes run twice round, so the rotation at i is [i:i + n];
    tails is _tails(codes, n), or None where the pair goes without.
    """
    n, letters = len(word), word * 2
    codes = encode(letters)
    return n, letters, codes, _tails(codes, n) if ranked else None


def _tails(codes, n: int) -> list[tuple[int, ...]]:
    """For each cut c, the starts that may begin the least rotation of a
    splice in which this word is a stretch ending at c.

    A start s is given by its tail t_s = (c - s) mod n, or n at c == s:
    the stretch read from s is P_s, rotation s cut after t_s letters,
    and the splice goes on with the other word.  Where P_x is below P_s
    at an index at which neither has ended, s cannot win, so the starts
    that may are those whose P_s begins with the least P_x.  A start on
    a letter above the least one never may.  Rotation q, the least,
    differs from rotation s first at index h_s; q alone may win at every
    cut outside (s, s + h_s] and (q, q + max h_s], and only the other
    cuts compare stretches.  Tails are listed largest first.  (K. S.
    Booth, IPL 10, 1980, finds q itself in linear time; the cuts are
    what a bracket needs.)
    """
    low = min(codes)
    starts = [s for s in range(n) if codes[s] == low]
    q = min(starts, key=lambda s: codes[s:s + n])
    least = codes[q:q + n]
    cover = [0] * (2 * n + 1)  # +1 where a stretch of shared cuts opens, -1 past it
    reach = 0
    for s in starts:
        if s != q:
            other, h = codes[s:s + n], 1
            while h < n and least[h] == other[h]:  # h = n: a periodic word
                h += 1
            cover[s + 1] += 1
            cover[s + h + 1] -= 1
            reach = max(reach, h)
    cover[q + 1] += 1
    cover[q + reach + 1] -= 1
    depth = list(accumulate(cover))
    out = []
    for c in range(n):
        if not (depth[c] or depth[c + n]):
            out.append(((c - q - 1) % n + 1,))
            continue
        tails = [((c - s - 1) % n + 1, s) for s in starts]
        best = min(codes[s:s + t] for t, s in tails)
        out.append(tuple(sorted((t for t, s in tails if codes[s:s + len(best)] == best),
                                reverse=True)))
    return out


def _splice_key(first, second, i: int, j: int, encode):
    """Key of canonical_cyclic(g + l) for g, l the rotations of the two
    sides at i and j.

    Both words are reduced, so letters cancel only at the junction g|l
    and at the cyclic junction l|g.  What is left is a stretch of g and
    a stretch of l.  When the tails tables hold, the least rotation
    starts at one of the few starts they list for the cuts; otherwise
    the joined word is scanned.
    """
    n1, t1, e1, r1 = first
    n2, t2, e2, r2 = second
    k = 0
    while k < n1 and k < n2 and t1[i + n1 - 1 - k] == -t2[j + k]:
        k += 1
    m = 0
    while m < n1 - k and m < n2 - k and t1[i + m] == -t2[j + n2 - 1 - m]:
        m += 1
    a, b = n1 - k - m, n2 - k - m
    if not a or not b:
        # one side cancels away, and what is left need not be reduced
        return encode(W.canonical_cyclic(t1[i:i + n1] + t2[j:j + n2]))
    word = e1[i + m:i + n1 - k] + e2[j + k:j + n2 - m]
    if r1 and r2:
        # the stretches end at cuts i - k and j - m; a listed start cut
        # away by the junctions leaves the tables no answer
        tails1, tails2 = r1[(i - k) % n1], r2[(j - m) % n2]
        if tails1[0] <= a and tails2[0] <= b:
            twice, n = word + word, a + b
            if len(tails1) + len(tails2) > 2:
                return min([twice[a - t:a - t + n] for t in tails1]
                           + [twice[n - t:2 * n - t] for t in tails2])
            p, q = a - tails1[0], n - tails2[0]
            x, y = twice[p:p + n], twice[q:q + n]
            return x if x < y else y
    return W.least_rotation(word)


def bracket_oriented(genus: int, word1, word2, seed: int = 0) -> LoopSum:
    """[gamma, lambda] = sum over crossings of sign(p) (gamma_p lambda_p)."""
    return _bracket(genus, word1, word2, seed, unoriented=False)


def bracket_unoriented(genus: int, word1, word2, seed: int = 0) -> LoopSum:
    """Unoriented variant, sign(p)/2 [(g_p l_p) - (g_p l_p^-1)]."""
    return _bracket(genus, word1, word2, seed, unoriented=True)


def bracket_sums(genus: int, sum1: LoopSum, sum2: LoopSum, seed: int = 0,
                 unoriented: bool = False) -> LoopSum:
    """Bilinear extension of the bracket to LoopSums."""
    fn = bracket_unoriented if unoriented else bracket_oriented
    out = LoopSum()
    for w1, c1 in sum1.items():
        for w2, c2 in sum2.items():
            part = fn(genus, list(w1), list(w2), seed=seed)
            for key, coef in part.terms.items():
                out._add_key(key, c1 * c2 * coef)
    return out


def poisson_direct(rep: Representation, word1, word2, seed: int = 0) -> float:
    """sum over crossings of sign(p) <F(H_p(gamma)), F(H_p(lambda))>.

    Based holonomies are taken at each crossing, so this is the Poisson
    bracket of the two trace functions; it must match evaluate() of the
    oriented bracket on the GL kinds and of the unoriented bracket on
    the form kinds.
    """
    import numpy as np

    from . import groups as G

    c1, c2, crossings = P.realized_pair(rep.genus, word1, word2, seed)
    if not crossings:
        return 0.0
    var1 = G.variation(rep.spec, _based_holonomies(rep, c1.word))
    var2 = G.variation(rep.spec, _based_holonomies(rep, c2.word))
    sign, i, j = np.array(crossings).T
    return float(sign @ np.einsum("nij,nji->n", var1[i], var2[j]).real)


def _based_holonomies(rep: Representation, word):
    """hol(w[i:] + w[:i]) for every segment i of the loop of `word`, stacked.

    The based word at segment i runs w[i:] first, so its holonomy is
    hol(w[:i]) @ hol(w[i:]): a prefix product times a suffix product.
    """
    import numpy as np

    pre = [np.eye(rep.spec.matrix_dim, dtype=complex)]
    for x in word[:-1]:
        pre.append(rep.letters[x] @ pre[-1])
    suf = [pre[0]]  # suf[k] = hol(w[m - k:])
    for x in reversed(word):
        suf.append(suf[-1] @ rep.letters[x])
    return np.stack(pre) @ np.stack(suf[:0:-1])


def torus_class_word(p: int, q: int) -> list[int]:
    """The class (p, q) on the torus as the word a^p b^q."""
    return [1 if p > 0 else -1] * abs(p) + [2 if q > 0 else -2] * abs(q)


def torus_closed_form(p: int, q: int, r: int, s: int) -> LoopSum:
    """[(p, q), (r, s)] = (p s - q r) (p + r, q + s) on the torus."""
    out = LoopSum()
    det = p * s - q * r
    if det:
        out.add(torus_class_word(p + r, q + s), det)
    return out
