"""The decorated variation by the reversed product and g^-1, kept as an
oracle.

groups.variation projects acc = g x_1 .. x_k onto the algebra as
(acc - sigma(acc)) / 2 with sigma(x) = F^T adj(x) F.  Here, on the form
kinds, sigma(acc) is rebuilt on the group as (-1)^k x_k .. x_1 g^-1: an
inverse, a second product in reverse order and a sign that alternates with
k.  It equals the projection only on group elements g.
"""

from __future__ import annotations

import numpy as np

from loopbracket.groups import GL_KINDS


def variation(spec, g: np.ndarray, xs=()) -> np.ndarray:
    """Decorated variation Fhat(g; x_1..x_k); with no x it is F(g).

    GL kinds: g x_1 .. x_k.  Form kinds: the symmetrized combination
    (g x_1 .. x_k + (-1)^{k+1} x_k .. x_1 g^-1) / 2, which lands back in
    the algebra and keeps the chain rule exact.  g may be a stack.
    """
    g = np.asarray(g, dtype=complex)
    acc = g
    for x in xs:
        acc = acc @ x
    if spec.kind in GL_KINDS:
        return acc
    rev = np.linalg.inv(g)
    for x in xs:
        rev = np.asarray(x) @ rev
    return (acc + rev if len(xs) % 2 else acc - rev) / 2.0
