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

    def scale(self, factor):
        f = Fraction(factor)
        out = LoopSum()
        if f:
            out.terms = {key: f * coef for key, coef in self.terms.items()}
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
        return sum(float(c) * f for (_, c), f in zip(items, traces))


def _bracket(genus: int, word1, word2, seed: int, unoriented: bool) -> LoopSum:
    out = LoopSum()
    if not W.cyclic_reduce(word1) or not W.cyclic_reduce(word2):
        return out  # trivial class is central
    c1, c2, crossings = P.realized_pair(genus, word1, word2, seed)
    n1, n2 = len(c1.word), len(c2.word)
    # g_p and l_p are rotations w[i:] + w[:i], slices of the doubled words,
    # and l_p^-1 is the rotation of w^-1 at n - j
    d1, d2, d2inv = c1.word * 2, c2.word * 2, tuple(W.inverse_word(c2.word)) * 2
    signs: dict[tuple[int, ...], int] = {}
    for x in crossings:
        i, j = x.seg_first, x.seg_second
        g = d1[i:i + n1]
        key = _joined_class(g, d2[j:j + n2])
        signs[key] = signs.get(key, 0) + x.sign
        if unoriented:
            key = _joined_class(g, d2inv[n2 - j:2 * n2 - j])
            signs[key] = signs.get(key, 0) - x.sign
    den = 2 if unoriented else 1
    out.terms = {key: Fraction(c, den) for key, c in signs.items() if c}
    return out


def _joined_class(g, l) -> tuple[int, ...]:
    """canonical_cyclic(g + l) for cyclically reduced words g and l.

    Both are reduced, so letters cancel only at the junction g|l and at
    the cyclic junction l|g; reduce there, and hand the rare product
    that cancels one side away entirely to canonical_cyclic.
    """
    n1, n2 = len(g), len(l)
    k = 0
    while k < n1 and k < n2 and g[n1 - 1 - k] == -l[k]:
        k += 1
    m = 0
    while m < n1 - k and m < n2 - k and g[m] == -l[n2 - 1 - m]:
        m += 1
    if m == n1 - k or m == n2 - k:
        return W.canonical_cyclic(g + l)
    return W.least_rotation(g[m:n1 - k] + l[k:n2 - m])


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
            for key, coef in part.terms.items():
                out._add_key(key, c1 * c2 * coef)
    return out


def _mix(seed: int, i: int, j: int) -> int:
    return (seed * 1000003 + i * 1009 + j) % (2 ** 31)


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
        pre.append(rep.image(x) @ pre[-1])
    suf = [pre[0]]  # suf[k] = hol(w[m - k:])
    for x in reversed(word):
        suf.append(suf[-1] @ rep.image(x))
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
