"""The seeded slot layout, kept as an oracle for layout independence.

The library lays every pair out by its strands' futures
(polygon._sorted_exits).  Here a pair is laid out by one seeded
permutation instead: with n letters in the pair, letter j exits its side
at numerator m_j = 2 k_j + 1 for distinct k_j < 2n, drawn by
slot_permutation, so all 2n boundary points are distinct and the pair
realizes in generic position with other crossings than the library's.
Goldman's bracket is defined on free homotopy classes, so any such
layout gives the same LoopSum (Goldman, Invent. Math. 85, 1986; Chas,
Topology 43, 2004).

seeded(seed) patches polygon.realized_pair for the length of a with
block, so that bracket._bracket and bracket.poisson_direct, which read
polygon.realized_pair when they are called, sum over this layout's
crossings; bracket() and poisson_direct() below do just that.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest import mock

from loopbracket import bracket as B
from loopbracket import polygon as P
from loopbracket import words as W


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


def realized_pair(genus: int, word1, word2, seed: int
                  ) -> tuple[P.PLLoop, P.PLLoop, list[tuple[int, int, int]]]:
    """polygon.realized_pair, with the slots k_j one seeded permutation."""
    if genus < 1:
        raise W.WordError("genus must be >= 1")
    words = [W.cyclic_reduce(w) for w in (word1, word2)]
    for w in words:
        W.check_word(w, genus)
    n = len(words[0]) + len(words[1])
    width = 4 * n + 1
    # the side glued to side s is s ^ 2, the exit side of the inverse letter
    side = {x: P.exit_side_for_letter(genus, x) for x in {*words[0], *words[1]}}
    sides = [[side[x] for x in w] for w in words]
    exits = [2 * k + 1 for k in slot_permutation(2 * n, seed)[:n]]
    loops, at = [], 0
    for w, s in zip(words, sides):
        e = exits[at:at + len(w)]
        at += len(w)
        # chord j re-enters side s_{j-1} ^ 2 at 1 - t_{j-1} and exits s_j at t_j
        chords = [(((s[j - 1] ^ 2) + 1) * width - e[j - 1], s[j] * width + e[j])
                  for j in range(len(w))]
        loops.append(P.PLLoop(genus, tuple(w), chords))
    return loops[0], loops[1], P.intersections(*loops)


@contextmanager
def seeded(seed: int):
    """Within the block, polygon.realized_pair lays pairs out at seed."""
    def pair(genus, word1, word2):
        return realized_pair(genus, word1, word2, seed)

    with mock.patch.object(P, "realized_pair", pair):
        yield


def bracket(genus: int, word1, word2, seed: int, unoriented: bool) -> B.LoopSum:
    """The library's bracket, summed over the seeded layout's crossings."""
    with seeded(seed):
        return B._bracket(genus, word1, word2, unoriented)


def poisson_direct(rep, word1, word2, seed: int) -> float:
    """The library's poisson_direct, summed over the seeded layout's crossings."""
    with seeded(seed):
        return B.poisson_direct(rep, word1, word2)
