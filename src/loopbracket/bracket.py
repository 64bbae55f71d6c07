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
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import groups as G
from . import polygon as P
from . import surface as S


class LoopSum:
    """Formal rational combination of free homotopy classes."""

    def __init__(self, terms=None):
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for word, coef in terms:
                self.add(word, coef)

    def add(self, word, coef):
        key = S.canonical_cyclic(list(word))
        c = self.terms.get(key, Fraction(0)) + Fraction(coef)
        if c == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = c

    def __add__(self, other):
        out = LoopSum()
        for word, coef in self.items():
            out.add(word, coef)
        for word, coef in other.items():
            out.add(word, coef)
        return out

    def scale(self, factor):
        out = LoopSum()
        for word, coef in self.items():
            out.add(word, Fraction(factor) * coef)
        return out

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __eq__(self, other):
        return isinstance(other, LoopSum) and self.terms == other.terms

    def __repr__(self):
        inner = ", ".join(f"{c} * {S.format_word(w) or '1'}" for w, c in self.items())
        return f"LoopSum({inner})"

    def evaluate(self, rep: S.Representation) -> float:
        items = self.items()
        traces = S.trace_functions(rep, [w for w, _ in items])
        return sum(float(c) * f for (_, c), f in zip(items, traces))


def _bracket(genus: int, word1, word2, seed: int, unoriented: bool) -> LoopSum:
    out = LoopSum()
    if not S.cyclic_reduce(word1) or not S.cyclic_reduce(word2):
        return out  # trivial class is central
    c1, c2, crossings = P.realized_pair(genus, word1, word2, seed)
    for x in crossings:
        g = c1.based_word(x.seg_first)
        l = c2.based_word(x.seg_second)
        if unoriented:
            out.add(g + l, Fraction(x.sign, 2))
            out.add(g + S.inverse_word(l), Fraction(-x.sign, 2))
        else:
            out.add(g + l, x.sign)
    return out


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
    for i, (w1, c1) in enumerate(sum1.items()):
        for j, (w2, c2) in enumerate(sum2.items()):
            part = fn(genus, list(w1), list(w2), seed=_mix(seed, i, j))
            out = out + part.scale(c1 * c2)
    return out


def _mix(seed: int, i: int, j: int) -> int:
    return (seed * 1000003 + i * 1009 + j) % (2 ** 31)


def poisson_direct(rep: S.Representation, word1, word2, seed: int = 0) -> float:
    """sum over crossings of sign(p) <F(H_p(gamma)), F(H_p(lambda))>.

    Based holonomies are taken at each crossing, so this is the Poisson
    bracket of the two trace functions; it must match evaluate() of the
    oriented bracket on the GL kinds and of the unoriented bracket on
    the form kinds.
    """
    c1, c2, crossings = P.realized_pair(rep.genus, word1, word2, seed)
    var1, var2 = _based_variations(rep, c1.word), _based_variations(rep, c2.word)
    total = 0.0
    for x in crossings:
        total += x.sign * G.pairing(var1[x.seg_first], var2[x.seg_second])
    return total


def _based_variations(rep: S.Representation, word) -> list:
    """F(hol(w[i:] + w[:i])) for every segment i of the loop of `word`.

    The based word at segment i runs w[i:] first, so its holonomy is
    hol(w[:i]) @ hol(w[i:]): a prefix product times a suffix product.
    """
    m = len(word)
    pre = [np.eye(rep.spec.matrix_dim, dtype=complex)]
    for x in word:
        pre.append(rep.image(x) @ pre[-1])
    suf = pre[0]
    out = [None] * m
    for i in range(m - 1, -1, -1):
        suf = suf @ rep.image(word[i])
        out[i] = G.variation(rep.spec, pre[i] @ suf)
    return out


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
