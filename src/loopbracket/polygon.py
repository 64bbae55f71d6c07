"""PL loops in the 4g-gon model of the closed orientable genus-g surface.

The surface is a convex 4g-gon with counterclockwise vertices V_0..V_{4g-1}
and sides s_i = [V_i, V_{i+1}], glued in blocks of four: s_{4k} ~ s_{4k+2}
and s_{4k+1} ~ s_{4k+3}, each by t <-> 1-t in the ccw side parameter.
Genus 1 is the unit square, higher genus the regular 4g-gon in the unit
circle.

A free homotopy class given by a cyclically reduced word is realized as a
closed chain of chords, one chord per letter: the chord of letter x_j runs
from the re-entry point of the previous crossing to a point on the exit
side of x_j.  The crossing-to-letter table below is derived from the deck
transformations of the gluing; with it the boundary word a1 b1 A1 B1 ..
is exactly the vertex link, and on the square torus the letters a and b
come out as a leftward horizontal and a downward vertical loop, so the
crossing sign convention det[tangent of first, tangent of second] > 0
gives the normalization [a, b] = +(a b) with no extra global sign.

Intersections between two realized loops are the transverse crossings of
their chords; each crossing records the sign and the based words of both
loops read from the crossing point (a rotation of each input word).  No
plane geometry is needed for them: a point of side s at parameter t sits
at perimeter position s + t, and two chords of the convex polygon cross
exactly when their endpoints interleave in that cyclic order (M. Chas,
Topology 43, 2004).  Realization therefore fails only when the per-side
spacing of one loop's boundary points cannot be met within the retry
budget, or when the two loops share an endpoint exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import surface as S


class RealizationError(RuntimeError):
    """Generic position could not be reached within the retry budget."""


def polygon_vertices(genus: int) -> np.ndarray:
    if genus < 1:
        raise S.WordError("genus must be >= 1")
    if genus == 1:
        return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    k = 4 * genus
    ang = 2 * np.pi * np.arange(k) / k
    return np.c_[np.cos(ang), np.sin(ang)]


def side_point(verts: np.ndarray, side: int, t: float) -> np.ndarray:
    k = len(verts)
    return verts[side % k] + t * (verts[(side + 1) % k] - verts[side % k])


def partner_side(side: int) -> int:
    return 4 * (side // 4) + (side % 4 + 2) % 4


def exit_side_for_letter(genus: int, letter: int) -> int:
    """Side a chord crossing the glued boundary exits through.

    With K = genus - handle index: a_i exits s_{4K+3}, its inverse
    s_{4K+1}, b_i exits s_{4K}, its inverse s_{4K+2}.
    """
    k = abs(letter)
    handle = (k + 1) // 2
    base = 4 * (genus - handle)
    if k % 2:  # a-generator
        return base + (3 if letter > 0 else 1)
    return base + (0 if letter > 0 else 2)


def letter_for_exit_side(genus: int, side: int) -> int:
    base, r = 4 * (side // 4), side % 4
    handle = genus - base // 4
    a, b = 2 * handle - 1, 2 * handle
    return {3: a, 1: -a, 0: b, 2: -b}[r]


@dataclass
class PLLoop:
    """Closed chain of chords realizing a free homotopy class.

    segments[j] runs from the re-entry point of crossing j-1 to the exit
    point of crossing j, so the first boundary crossing after any point
    of segments[j] carries word[j]; the based word read from a point on
    segments[j] is the rotation word[j:] + word[:j].
    """

    genus: int
    word: tuple[int, ...]
    segments: list[tuple[np.ndarray, np.ndarray]]
    exit_params: list[float]

    def based_word(self, seg_index: int) -> list[int]:
        w = list(self.word)
        return w[seg_index:] + w[:seg_index]


def realize(genus: int, word, rng: np.random.Generator,
            max_tries: int = 32) -> PLLoop:
    """PL representative of the class of `word`, in generic position.

    The word is freely and cyclically reduced first; reduction removes
    exactly the degenerate chords (a cancelling pair would re-enter and
    exit through the same glued side).  The empty class becomes a small
    triangle near the center, crossing nothing.
    """
    w = S.cyclic_reduce(list(word))
    S.check_word(w, genus)
    verts = polygon_vertices(genus)
    if not w:
        center = verts.mean(axis=0)
        radius = 0.02 if genus == 1 else 0.05
        phi = rng.uniform(0, 2 * np.pi)
        pts = [center + radius * np.array([np.cos(phi + 2 * np.pi * i / 3),
                                           np.sin(phi + 2 * np.pi * i / 3)])
               for i in range(3)]
        segs = [(pts[i], pts[(i + 1) % 3]) for i in range(3)]
        return PLLoop(genus, (), segs, [])
    sides = [exit_side_for_letter(genus, x) for x in w]
    for _ in range(max_tries):
        ts = rng.uniform(0.12, 0.88, size=len(w))
        # boundary points must stay distinct per side across both the
        # exit point (side, t) and the glued re-entry (partner, 1-t)
        marks: dict[int, list[float]] = {}
        for side, t in zip(sides, ts):
            marks.setdefault(side, []).append(t)
            marks.setdefault(partner_side(side), []).append(1 - t)
        ok = all(len(v) < 2 or np.min(np.diff(np.sort(v))) > 1e-4
                 for v in marks.values())
        if not ok:
            continue
        exits = [side_point(verts, s, t) for s, t in zip(sides, ts)]
        entries = [side_point(verts, partner_side(s), 1 - t)
                   for s, t in zip(sides, ts)]
        segs = [(entries[j - 1], exits[j]) for j in range(len(w))]
        return PLLoop(genus, tuple(w), segs, [float(t) for t in ts])
    raise RealizationError("no generic realization within retry budget")


@dataclass
class Crossing:
    sign: int
    seg_first: int
    seg_second: int


def _boundary_chords(loop: PLLoop) -> list[tuple[float, float]]:
    """(start, end) of each chord as perimeter positions side + t."""
    sides = [exit_side_for_letter(loop.genus, x) for x in loop.word]
    ends = [s + t for s, t in zip(sides, loop.exit_params)]
    starts = [partner_side(s) + 1 - t for s, t in zip(sides, loop.exit_params)]
    return [(starts[j - 1], ends[j]) for j in range(len(ends))]


def intersections(first: PLLoop, second: PLLoop) -> list[Crossing]:
    """Transverse crossings of the chord chains of two loops.

    Chords (a -> b) and (c -> d) of the convex polygon cross iff c and d
    lie on different arcs of the boundary between a and b.  sign is
    det[first tangent, second tangent] in the ccw plane orientation,
    which is -1 iff d lies on the ccw arc from a to b.  An endpoint
    shared by the two loops violates generic position and raises
    RealizationError so the caller can re-realize with a fresh seed.
    The empty class is a small loop crossing nothing.
    """
    if not first.word or not second.word:
        return []
    chords1, chords2 = _boundary_chords(first), _boundary_chords(second)
    if not {p for c in chords1 for p in c}.isdisjoint(p for c in chords2 for p in c):
        raise RealizationError("chord endpoints of the two loops coincide")
    found: list[Crossing] = []
    for i, (a, b) in enumerate(chords1):
        for j, (c, d) in enumerate(chords2):
            # True for points of the arc from a to b that avoids position 0,
            # whichever of a and b comes first
            c_in, d_in = (a < c) == (c < b), (a < d) == (d < b)
            if c_in != d_in:
                found.append(Crossing(-1 if d_in == (a < b) else 1, i, j))
    return found


def realized_pair(genus: int, word1, word2, seed: int,
                  max_tries: int = 32) -> tuple[PLLoop, PLLoop, list[Crossing]]:
    """Two loops in mutually generic position plus their crossings."""
    last = None
    for attempt in range(max_tries):
        rng = np.random.default_rng([seed, attempt])
        try:
            c1 = realize(genus, word1, rng)
            c2 = realize(genus, word2, rng)
            return c1, c2, intersections(c1, c2)
        except RealizationError as err:
            last = err
    raise RealizationError(f"no generic pair within retry budget: {last}")
