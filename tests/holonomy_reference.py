"""Based holonomies as prefix times suffix products, kept as an oracle.

bracket.poisson_direct takes a loop's holonomy at each of its segments
by change of basepoint, P_i hol(w) P_i^-1, and F once per loop.  Here
each based holonomy is rebuilt as hol(w[:i]) @ hol(w[i:]) from prefix and
suffix products accumulated separately, and F is taken of every one of
them, so the two routes share only the letter table and the crossings.
"""

from __future__ import annotations

import numpy as np

from loopbracket import groups as G
from loopbracket import polygon as P


def _based_holonomies(rep, word):
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


def poisson_direct(rep, word1, word2) -> float:
    """bracket.poisson_direct over the same crossings, with F taken of
    each based holonomy of _based_holonomies."""
    c1, c2, crossings = P.realized_pair(rep.genus, word1, word2)
    if not crossings:
        return 0.0
    var1 = G.variation(rep.spec, _based_holonomies(rep, c1.word))
    var2 = G.variation(rep.spec, _based_holonomies(rep, c2.word))
    sign, i, j = np.array(crossings).T
    return float(sign @ np.einsum("nij,nji->n", var1[i], var2[j]).real)
