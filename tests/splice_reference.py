"""The bracket's term keys by one _splice_key call per crossing, kept as
an oracle.

bracket._counts forms each key inside one loop over the crossings per
side: it tests the two junctions, reads a splice that cancels nothing
from the tails tables at once, and trims only the junctions that
cancel.  Here every key goes through _splice_key, which trims both
junctions first and then reads the tables or scans the joined word.
The two must count the same keys: a canonical form is unique, so any
disagreement is a wrong key.
"""

from __future__ import annotations

from itertools import accumulate

from loopbracket import bracket as B
from loopbracket import polygon as P
from loopbracket import words as W


def bracket(genus: int, word1, word2, unoriented: bool) -> B.LoopSum:
    """bracket_unoriented or bracket_oriented, keyed by counts()."""
    return B._from_counts(counts(genus, word1, word2, unoriented), 2 if unoriented else 1)


def counts(genus: int, word1, word2, unoriented: bool) -> dict[str, int]:
    """Signed crossing count of each term key, in halves when unoriented;
    a key may count 0."""
    c1, c2, crossings = P.realized_pair(genus, word1, word2)
    if 2 * genus > B._LIMIT:  # else the genus check of realized_pair is the stricter
        B._check_limit(c1.word + c2.word)
    if not crossings:
        return {}  # disjoint loops, among them the trivial class, commute
    # the tails tables are built once per pair and save a scan on each
    # term; below 1.5 terms a letter they cost more than that
    ranked = 2 * len(crossings) >= 3 * (len(c1.word) + len(c2.word))
    first, second = _side(c1.word, ranked), _side(c2.word, ranked)
    if unoriented:
        # l_p^-1 is the rotation of w2^-1 at n2 - j
        n2, inverse = len(c2.word), _side(tuple(W.inverse_word(c2.word)), ranked)
    out: dict[str, int] = {}
    for sign, i, j in crossings:
        key = _splice_key(first, second, i, j)
        out[key] = out.get(key, 0) + sign
        if unoriented:
            key = _splice_key(first, inverse, i, -j % n2)
            out[key] = out.get(key, 0) - sign
    return out


def _side(word: tuple, ranked: bool):
    """(n, letters, codes, tails) of one word of a pair.

    Letters and key codes run twice round, so the rotation at i is
    [i:i + n]; tails is _tails(codes, n), or None where the pair goes without.
    """
    n, letters, codes = len(word), word * 2, B._encode(word) * 2
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
        return B._encode(W.canonical_cyclic(t1[i:i + n1] + t2[j:j + n2]))
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
