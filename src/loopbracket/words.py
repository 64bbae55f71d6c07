"""Words in the surface group presentation, on the standard library alone.

Words in the standard genus-g presentation < a_1, b_1, .., a_g, b_g |
prod [a_i, b_i] > are lists of signed integers: a_k is 2k-1, b_k is 2k,
and negation is inversion.  The token form is a1 b1 A1 B1 with capitals
for inverses.

>>> free_reduce([1, 2, -2, -1])
[]
>>> cyclic_reduce([2, 1, -2])
[1]
>>> parse_word("a1 B2 A1")
[1, -4, -1]
>>> format_word([1, -4, -1])
'a1 B2 A1'
"""

from __future__ import annotations

import re


class WordError(ValueError):
    pass


class RelatorError(RuntimeError):
    """Representation sampling failed to satisfy the surface relation."""


_TOKEN = re.compile(r"([abAB])([1-9][0-9]*)$")


def parse_word(text: str) -> list[int]:
    """Whitespace-separated tokens a1 b1 A1 B1 -> signed generator list."""
    word = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise WordError(f"bad token {tok!r}")
        kind, idx = m.group(1), int(m.group(2))
        n = 2 * idx - 1 if kind in "aA" else 2 * idx
        word.append(n if kind.islower() else -n)
    return word


def format_word(word) -> str:
    out = []
    for x in word:
        k = abs(x)
        idx = (k + 1) // 2
        tok = ("a" if k % 2 else "b") + str(idx)
        out.append(tok if x > 0 else tok.upper())
    return " ".join(out)


def check_word(word, genus: int):
    for x in word:
        if x == 0 or abs(x) > 2 * genus:
            raise WordError(f"letter {x} out of range for genus {genus}")


def inverse_word(word) -> list[int]:
    return [-x for x in reversed(word)]


def free_reduce(word) -> list[int]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def cyclic_reduce(word) -> list[int]:
    w = free_reduce(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def canonical_cyclic(word) -> tuple[int, ...]:
    """Lexicographically least rotation of the cyclically reduced word.

    Canonical form for free homotopy classes of oriented loops; a word
    and its inverse stay distinct.
    """
    return least_rotation(tuple(cyclic_reduce(word)))


def least_rotation(w):
    """Lexicographically least rotation of a cyclically reduced word.

    w is a tuple of letters, or a bracket term key: a str with one code
    point per letter; the rotation comes back of the same type.  It scans
    every rotation that starts at the least letter at full length, so
    `bracket` calls it only for the terms its per-pair rotation ranks
    leave undecided.
    """
    if not w:
        return w
    # the least rotation starts at an occurrence of the least letter
    n, first = len(w), min(w)
    doubled = w * 2
    i = w.index(first)
    best = doubled[i:i + n]
    for _ in range(w.count(first) - 1):
        i = w.index(first, i + 1)
        other = doubled[i:i + n]
        if other < best:
            best = other
    return best


def relator(genus: int) -> list[int]:
    out = []
    for k in range(1, genus + 1):
        out += [2 * k - 1, 2 * k, -(2 * k - 1), -(2 * k)]
    return out
