"""Loops in the 4g-gon model of the closed orientable genus-g surface.

The surface is a convex 4g-gon with counterclockwise sides s_0..s_{4g-1},
glued in blocks of four: s_{4k} ~ s_{4k+2} and s_{4k+1} ~ s_{4k+3}, each
by t <-> 1-t in the ccw side parameter.

A free homotopy class given by a cyclically reduced word is realized as a
closed chain of chords, one chord per letter: the chord of letter x_j runs
from the re-entry point of the previous crossing to a point on the exit
side of x_j.  The crossing-to-letter table below is derived from the deck
transformations of the gluing; with it the boundary word a1 b1 A1 B1 ..
is exactly the vertex link, and on the square torus the letters a and b
come out as a leftward horizontal and a downward vertical loop, so the
crossing sign convention det[tangent of first, tangent of second] > 0
gives the normalization [a, b] = +(a b) with no extra global sign.

The two loops of a pair are laid out together on exact boundary slots.
With n letters in the pair, letter j exits its side at t = m_j/(4n + 1)
and re-enters the glued side at 1 - t; the layout picks the m_j so that
all 2n boundary points of the pair are distinct, and then every pair
realizes in generic position.  A point of side s with numerator m is
kept as the integer perimeter position s (4n + 1) + m.  The layout is
the one by futures, _sorted_exits: each glued edge's strands are sorted
by where their words go next, so strands that run side by side stay
parallel and the pair comes near minimal position, with few crossings
beyond the terms they make (Goldman, Invent. Math. 85, 1986; Chas 2004).
Intersections between the two loops are the transverse crossings of
their chords; each crossing records the sign and the based words of both
loops read from the crossing point (a rotation of each input word).  Two
chords of the convex polygon cross exactly when their endpoints
interleave in the cyclic order of perimeter positions (M. Chas,
Topology 43, 2004), so no plane coordinates are needed.
"""

from __future__ import annotations

from typing import NamedTuple

from . import words as W


def exit_side_for_letter(genus: int, letter: int) -> int:
    """Side a chord crossing the glued boundary exits through.

    With K = genus - handle index: a_i exits s_{4K+3}, its inverse
    s_{4K+1}, b_i exits s_{4K}, its inverse s_{4K+2}.  The side glued
    to the exit side of x is the exit side of x^-1.
    """
    k = abs(letter)
    handle = (k + 1) // 2
    base = 4 * (genus - handle)
    if k % 2:  # a-generator
        return base + (3 if letter > 0 else 1)
    return base + (0 if letter > 0 else 2)


class PLLoop(NamedTuple):
    """Closed chain of chords realizing a free homotopy class.

    chords[j] = (start, end) runs from the re-entry point of crossing j-1
    to the exit point of crossing j on the exit side of word[j], both as
    perimeter positions, so the first boundary crossing after any point
    of chord j carries word[j]; the based word read from a point on
    chord j is the rotation word[j:] + word[:j].
    """

    genus: int
    word: tuple[int, ...]
    chords: list[tuple[int, int]]


def intersections(first: PLLoop, second: PLLoop) -> list[tuple[int, int, int]]:
    """Transverse crossings (sign, i, j) of chord i of first and j of second.

    Chords (a -> b) and (c -> d) of the convex polygon cross iff c and d
    lie on different arcs of the boundary between a and b.  sign is
    det[first tangent, second tangent] in the ccw plane orientation,
    which is -1 iff d lies on the ccw arc from a to b.  The empty class
    has no chords and crosses nothing.
    """
    found = []
    for i, (a, b) in enumerate(first.chords):
        # (lo, hi) is the arc between a and b that avoids position 0, and s
        # the sign of a crossing whose c lies on it
        lo, hi, s = (a, b, 1) if a < b else (b, a, -1)
        for j, (c, d) in enumerate(second.chords):
            if lo < c < hi:
                if not lo < d < hi:
                    found.append((s, i, j))
            elif lo < d < hi:
                found.append((-s, i, j))
    return found


def realized_pair(genus: int, word1, word2
                  ) -> tuple[PLLoop, PLLoop, list[tuple[int, int, int]]]:
    """Two loops in mutually generic position plus their crossings.

    Each word is freely and cyclically reduced first; reduction removes
    exactly the degenerate chords (a cancelling pair would re-enter and
    exit through the same glued side).  The exits follow _sorted_exits.
    """
    if genus < 1:
        raise W.WordError("genus must be >= 1")
    words = [W.cyclic_reduce(w) for w in (word1, word2)]
    for w in words:
        W.check_word(w, genus)
    n = len(words[0]) + len(words[1])
    width = 4 * n + 1
    # the side glued to side s is s ^ 2, the exit side of the inverse letter
    side = {x: exit_side_for_letter(genus, x) for x in {*words[0], *words[1]}}
    sides = [[side[x] for x in w] for w in words]
    exits = _sorted_exits(genus, sides, n, width)
    loops, at = [], 0
    for w, s in zip(words, sides):
        e = exits[at:at + len(w)]
        at += len(w)
        # chord j re-enters side s_{j-1} ^ 2 at 1 - t_{j-1} and exits s_j at t_j
        chords = [(((s[j - 1] ^ 2) + 1) * width - e[j - 1], s[j] * width + e[j])
                  for j in range(len(w))]
        loops.append(PLLoop(genus, tuple(w), chords))
    return loops[0], loops[1], intersections(*loops)


def _sorted_exits(genus: int, sides, n: int, width: int) -> list[int]:
    """Exit numerators of the n letters of a pair, laid out by their futures.

    sides holds the exit side of each letter of each word.  Every letter
    is a strand through the glued edge {s, s ^ 2} of its exit side s,
    read from the lower side (s & 2 == 0) to the upper one: forwards if
    it exits the lower side, else as its inverse letter in the inverse
    word.  A strand's key is its next n + 1 turns, read cyclically, where
    a turn is the ccw offset from the side re-entered to the side exited
    next; n + 1 turns suffice for equal keys to mean equal periodic
    futures (Fine-Wilf).  Equal keys are tied by the strand's index in
    the pair, negated for strands read backwards, so that equal curves
    stay on one side of each other.  Rank r in the ascending order puts
    a strand at numerator r of its lower side: one read forwards exits
    there, one read backwards exits the upper side at width - r and
    re-enters there.  Strands that run side by side then stay parallel,
    and two strands cross only where their words part the wrong way
    round, or where an edge read the other way orders them by their
    pasts.
    """
    turns = 4 * genus
    keys, up = [], []
    for s in sides:
        m = len(s)
        if m:
            ahead = [(t - (u ^ 2)) % turns for u, t in zip(s, s[1:] + s[:1])]
            # read backwards, the turn from letter j to letter j - 1 is the
            # forward turn into letter j negated: back[m - j], cyclically
            back = [turns - t for t in reversed(ahead)] * (n // m + 2)
            ahead *= n // m + 2
            keys += [back[m - j:m + n + 1 - j] if u & 2 else ahead[j:j + n + 1]
                     for j, u in enumerate(s)]
            up += s
    # the stable sort keeps equal keys in this order: strands read
    # backwards by descending index, then the rest by ascending index
    order = ([g for g in range(n - 1, -1, -1) if up[g] & 2]
             + [g for g in range(n) if not up[g] & 2])
    exits = [0] * n
    for r, g in enumerate(sorted(order, key=keys.__getitem__), 1):
        exits[g] = width - r if up[g] & 2 else r
    return exits
