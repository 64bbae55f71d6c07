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
With n letters in the pair, letter j exits its side at
t = (2 k_j + 1)/(4n + 1) for distinct k_j < 2n, and re-enters the glued
side at 1 - t, whose numerator is even; so all 2n boundary points of the
pair are distinct and every pair realizes in generic position.  A point
of side s with numerator m is kept as the integer perimeter position
s (4n + 1) + m.  Intersections between the two loops are the transverse
crossings of their chords; each crossing records the sign and the based
words of both loops read from the crossing point (a rotation of each
input word).  Two chords of the convex polygon cross exactly when their
endpoints interleave in the cyclic order of perimeter positions
(M. Chas, Topology 43, 2004), so no plane coordinates are needed.
"""

from __future__ import annotations

import random
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


def slot_permutation(size: int, seed: int) -> list[int]:
    """A permutation of range(size) that is a pure function of (size, seed).

    Fisher-Yates over random.Random(seed).random(): Python keeps the
    random() stream of a seeded generator the same across versions, but
    not the output of shuffle().
    """
    draw = random.Random(seed).random
    out = list(range(size))
    for i in range(size - 1, 0, -1):
        j = int(draw() * (i + 1))
        out[i], out[j] = out[j], out[i]
    return out


def realized_pair(genus: int, word1, word2,
                  seed: int) -> tuple[PLLoop, PLLoop, list[tuple[int, int, int]]]:
    """Two loops in mutually generic position plus their crossings.

    Each word is freely and cyclically reduced first; reduction removes
    exactly the degenerate chords (a cancelling pair would re-enter and
    exit through the same glued side).  The slots k_j are one seeded
    permutation, so a pair realizes at every seed.
    """
    if genus < 1:
        raise W.WordError("genus must be >= 1")
    words = [W.cyclic_reduce(w) for w in (word1, word2)]
    for w in words:
        W.check_word(w, genus)
    n = len(words[0]) + len(words[1])
    width = 4 * n + 1
    slots = iter(slot_permutation(2 * n, seed))
    # the side glued to side s is s ^ 2, the exit side of the inverse letter
    sides = {x: exit_side_for_letter(genus, x) for x in {*words[0], *words[1]}}
    loops = []
    for w in words:
        ends, starts = [], []
        for x in w:
            m = 2 * next(slots) + 1
            ends.append(sides[x] * width + m)
            starts.append((sides[x] ^ 2) * width + width - m)
        loops.append(PLLoop(genus, tuple(w),
                            [(starts[j - 1], ends[j]) for j in range(len(w))]))
    return loops[0], loops[1], intersections(*loops)
