"""Bracket of free homotopy classes of loops on a closed surface.

A LoopSum is a finite formal sum of classes, integer counts over one
denominator, keyed by the canonical cyclic form of the word as a str
with one code point per letter, letters within +-491519 only.  The
oriented bracket of two classes sums sign(p) (gamma_p lambda_p) over the
transverse crossings p of generic PL representatives; the unoriented
variant takes sign(p)/2 [(gamma_p lambda_p) - (gamma_p lambda_p^-1)].

Evaluation sends a class to Re tr of its holonomy, and poisson_direct
computes the matching Poisson-side sum sign(p) <F(H_p(gamma)),
F(H_p(lambda))> over the crossings of the bracket's layout, the one by
its strands' futures.  The two routes share the crossings and nothing
after them: the bracket splices words into an exact LoopSum and traces
it, poisson_direct conjugates one variation per loop to each crossing.

The bracket itself is exact combinatorics and imports only the standard
library; evaluate, evaluate_many and poisson_direct import the numeric
modules when they are called.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, pairwise
from math import lcm
from typing import TYPE_CHECKING

from . import polygon as P
from . import words as W

if TYPE_CHECKING:
    import numpy as np

    from .surface import Representation


class LoopSum:
    """Formal rational combination of free homotopy classes: nonzero int
    counts over one positive denominator, not always the least, so sums
    are equal when their counts agree cross-multiplied.  A Fraction is
    built only in add, terms and items()."""

    def __init__(self, terms=None):
        self._terms: dict[str, int] = {}
        self._den = 1
        if terms:
            for word, coef in terms:
                self.add(word, coef)

    def add(self, word, coef):
        word = W.canonical_cyclic(list(word))
        _check_limit(word)
        coef = Fraction(coef)
        self._merge({_encode(word): coef.numerator}, coef.denominator)

    def _merge(self, counts: dict[str, int], den: int):
        """Add counts over den in place, dropping keys that sum to 0."""
        total = lcm(self._den, den)
        if total != self._den:
            scale = total // self._den
            self._terms = {key: c * scale for key, c in self._terms.items()}
            self._den = total
        scale = total // den
        for key, c in counts.items():
            c = self._terms.get(key, 0) + c * scale
            if c:
                self._terms[key] = c
            else:
                self._terms.pop(key, None)  # a zero coefficient adds no key

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """A fresh dict of the terms, keyed by int tuple words."""
        return {_decode(key): Fraction(c, self._den) for key, c in self._terms.items()}

    def _keys(self) -> list[str]:
        # by length, then by code point: the sort is stable
        return sorted(sorted(self._terms), key=len)

    def __add__(self, other):
        out = _from_counts(self._terms, self._den)
        out._merge(other._terms, other._den)
        return out

    def items(self):
        return [(_decode(key), Fraction(self._terms[key], self._den)) for key in self._keys()]

    def __eq__(self, other):
        return isinstance(other, LoopSum) and self._terms.keys() == other._terms.keys() and all(
            c * other._den == other._terms[key] * self._den for key, c in self._terms.items())

    def __repr__(self):
        inner = ", ".join(f"{c} * {W.format_word(w) or '1'}" for w, c in self.items())
        return f"LoopSum({inner})"

    def evaluate(self, rep: Representation) -> float:
        return float(evaluate_many([self], [rep])[0, 0])


def _from_counts(counts: dict[str, int], den: int) -> LoopSum:
    """The sum of counts over den, a key that counts 0 left out."""
    out = LoopSum()
    out._terms = {key: c for key, c in counts.items() if c}
    out._den = den
    return out


def evaluate_many(sums, reps) -> np.ndarray:
    """The (len(sums), len(reps)) array of sums[s].evaluate(reps[r]).

    The keys of all the sums go through one trace_functions call, so the
    reps must share one genus and one matrix size.  Entry [s, r] adds
    the terms c f_w of sums[s] in key order, left to right from 0.0.
    """
    import numpy as np

    from .surface import trace_functions

    keys = [ls._keys() for ls in sums]
    joined = [key for ks in keys for key in ks]
    flat = np.frombuffer("".join(joined).encode("utf-32-le"), "<i4") - _OFFSET
    traces = trace_functions(reps, flat, np.fromiter(map(len, joined), np.intp, len(joined)))
    # int / int is correctly rounded: the float of the exact coefficient
    coefs = [c / ls._den for ls, ks in zip(sums, keys) for c in map(ls._terms.get, ks)]
    bounds = list(pairwise(accumulate(map(len, keys), initial=0)))
    products = (traces * coefs).tolist()
    return np.array([[sum(row[lo:hi], 0.0) for row in products]
                     for lo, hi in bounds]).reshape(len(sums), len(reps))


# Term keys are str, letter x the code point x + _OFFSET: a key orders,
# slices and hashes like the int tuple word but in C, at every genus.
# Letters within +-_LIMIT keep clear of the surrogates, so keys encode.
_OFFSET, _LIMIT = 0x88000, 0x77FFF


def _encode(word) -> str:
    return "".join([chr(x + _OFFSET) for x in word])


def _decode(key: str) -> tuple[int, ...]:
    return tuple([ord(c) - _OFFSET for c in key])


def _check_limit(word):
    if word and max(map(abs, word)) > _LIMIT:
        raise W.WordError(f"letter {max(word, key=abs)} past the key limit +-{_LIMIT}")


def _bracket(genus: int, word1, word2, unoriented: bool) -> LoopSum:
    """The bracket from the layout of realized_pair."""
    return _from_counts(_counts(genus, word1, word2, unoriented), 2 if unoriented else 1)


def _counts(genus: int, word1, word2, unoriented: bool) -> dict[str, int]:
    """Signed crossing count of each term key, in halves when unoriented;
    a key may count 0."""
    c1, c2, crossings = P.realized_pair(genus, word1, word2)
    if 2 * genus > _LIMIT:  # else the genus check of realized_pair is the stricter
        _check_limit(c1.word + c2.word)
    if not crossings:
        return {}  # disjoint loops, among them the trivial class, commute
    # the tails tables are built once per pair and save a scan on each
    # term; below 1.5 terms a letter they cost more than that
    ranked = 2 * len(crossings) >= 3 * (len(c1.word) + len(c2.word))
    first, second = _side(c1.word, ranked), _side(c2.word, ranked)
    if unoriented:
        # l_p^-1 is the rotation of w2^-1 at n2 - j
        n2, inverse = len(c2.word), _side(tuple(W.inverse_word(c2.word)), ranked)
    counts: dict[str, int] = {}
    for sign, i, j in crossings:
        key = _splice_key(first, second, i, j)
        counts[key] = counts.get(key, 0) + sign
        if unoriented:
            key = _splice_key(first, inverse, i, -j % n2)
            counts[key] = counts.get(key, 0) - sign
    return counts


def _side(word: tuple, ranked: bool):
    """(n, letters, codes, tails) of one word of a pair.

    Letters and key codes run twice round, so the rotation at i is
    [i:i + n]; tails is _tails(codes, n), or None where the pair goes without.
    """
    n, letters, codes = len(word), word * 2, _encode(word) * 2
    return n, letters, codes, _tails(codes, n) if ranked else None


def _tails(codes: str, n: int) -> list[tuple[int, ...]]:
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


def _splice_key(first, second, i: int, j: int) -> str:
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
        return _encode(W.canonical_cyclic(t1[i:i + n1] + t2[j:j + n2]))
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
    """[gamma, lambda] = sum over crossings of sign(p) (gamma_p lambda_p).

    The pair is laid out by its strands' futures; seed is accepted and
    changes nothing.
    """
    return _bracket(genus, word1, word2, unoriented=False)


def bracket_unoriented(genus: int, word1, word2, seed: int = 0) -> LoopSum:
    """Unoriented variant, sign(p)/2 [(g_p l_p) - (g_p l_p^-1)]; seed is
    accepted and changes nothing."""
    return _bracket(genus, word1, word2, unoriented=True)


def bracket_sums(genus: int, sum1: LoopSum, sum2: LoopSum, seed: int = 0,
                 unoriented: bool = False) -> LoopSum:
    """Bilinear extension of the bracket to LoopSums; seed is accepted and
    changes nothing.

    Each pair's crossing counts, times its two terms' counts, are summed
    over the product of the sums' denominators, doubled when unoriented.
    """
    first = [(_decode(key), m) for key, m in sum1._terms.items()]
    second = [(_decode(key), m) for key, m in sum2._terms.items()]
    totals: dict[str, int] = {}
    for w1, m1 in first:
        for w2, m2 in second:
            m12 = m1 * m2
            for key, count in _counts(genus, w1, w2, unoriented).items():
                totals[key] = totals.get(key, 0) + m12 * count
    return _from_counts(totals, sum1._den * sum2._den * (2 if unoriented else 1))


def poisson_direct(rep: Representation, word1, word2, seed: int = 0) -> float:
    """sum over crossings of sign(p) <F(H_p(gamma)), F(H_p(lambda))>.

    Based holonomies are taken at each crossing, so this is the Poisson
    bracket of the two trace functions; it must match evaluate() of the
    oriented bracket on the GL kinds and of the unoriented bracket on
    the form kinds.  A loop read from its segment i has the holonomy
    P_i hol(w) P_i^-1 (surface.prefix_holonomies), and F commutes with
    conjugation, so F is taken once per loop.  The pair is laid out as
    the bracket lays it out; seed is accepted and changes nothing.
    """
    import numpy as np

    from . import groups as G
    from . import surface as S

    c1, c2, crossings = P.realized_pair(rep.genus, word1, word2)
    if not crossings:
        return 0.0
    var = []
    for loop in (c1, c2):
        pre, inv = S.prefix_holonomies(rep, loop.word)
        var.append(pre[:-1] @ G.variation(rep.spec, pre[-1]) @ inv[:-1])
    sign, i, j = np.array(crossings).T
    return float(sign @ np.einsum("nij,nji->n", var[0][i], var[1][j]).real)


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
