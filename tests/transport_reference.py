"""The Picard panel and the Gauss-Legendre route in their plain form, kept
as an oracle.

Each grid try re-stacks its samples, taken at numpy scalars; the levels
of a complex path run in complex arithmetic, one f @ cur product per
level, the last one included; r_hat's chord norms come from
np.linalg.norm(..., 2).  The stage systems of the Gauss-Legendre route
are I - h blocks, and its tree product concatenates at every round.  The
library runs the levels as real 2d x 2d blocks and samples each node
once: tests/test_transport.py checks that the levels of real paths, r_hat,
the certificate's terms and every RK route keep their bits, and that the
levels of complex paths stay within roundoff of these.
"""

from __future__ import annotations

import numpy as np

from loopbracket import transport as T


def fit(samples, a, b, scale):
    grids = T._grids()
    x = grids[T._SIZES[-1]][0]
    for size in T._SIZES:
        stride = (T._SIZES[-1] - 1) // (size - 1)
        f = np.stack([samples(a + (b - a) * x[j])
                      for j in range(0, T._SIZES[-1], stride)])
        c = np.linalg.norm(grids[size][1] @ f.reshape(size, -1), axis=1)
        if (f == f[0]).all() or c[size // 2:].max() <= T._CHOP * max(scale, c.max()):
            return f, c, True
    return f, c, False


def panel(samples, a, b, fit_, scale, n_max, depth=0, forks=0):
    f, c, resolved = fit_
    if not resolved and depth < T._MAX_DEPTH and forks < T._MAX_FORKS:
        half = a + (b - a) / 2
        fits = fit(samples, a, half, scale), fit(samples, half, b, scale)
        forks += not (fits[0][2] or fits[1][2])
        left = panel(samples, a, half, fits[0], scale, n_max, depth + 1, forks)
        right = panel(samples, half, b, fits[1], scale, n_max, depth + 1, forks)
        return (T._chen_product(right[0], left[0]),
                left[1] + right[1], left[2] + right[2])
    length, (size, d, _) = b - a, f.shape
    if (f == f[0]).all():
        return (T._arc_levels(length * f[0], n_max),
                length * float(np.linalg.norm(f[0], 2)),
                (n_max + size) * d * T._U)
    _, _, integ, trap, second = T._grids()[size]
    flat = f.reshape(size, d * d)
    tail = 2 * float(c[size // 2:].sum())
    curve = (2 / length) ** 2 * float(np.linalg.norm(second @ flat, axis=1).sum())
    h = length / T._TRAP
    norms = np.linalg.norm((trap @ flat).reshape(-1, d, d), 2, axis=(1, 2))
    r_hat = (h * float(norms.sum() - (norms[0] + norms[-1]) / 2)
             + length * h * h / 12 * curve + length * tail)
    levels = np.empty((n_max + 1, d, d), dtype=complex)
    levels[0] = np.eye(d)
    q = length * integ
    integrand = f
    for k in range(1, n_max + 1):
        cur = (q @ integrand.reshape(size, d * d)).reshape(size, d, d)
        levels[k] = cur[-1]
        integrand = f @ cur
    return levels, r_hat, length * tail + (n_max + size) * d * T._U


def tree_product(steps):
    while len(steps) > 1:
        steps = np.concatenate([steps[1::2] @ steps[:-1:2],
                                steps[len(steps) - len(steps) % 2:]])
    return steps[0]


def rk4_transport(path, n_steps=32):
    d, h = path.dim, 1.0 / n_steps
    nodes = (np.arange(n_steps)[:, None] + T._GAUSS_C) / n_steps
    a = np.array([path.fn(t) for t in nodes.ravel().tolist()], dtype=complex)
    blocks = T._GAUSS_A[:, None, :, None] * a.reshape(n_steps, 4, d, 1, d)
    system = np.eye(4 * d) - h * blocks.reshape(n_steps, 4 * d, 4 * d)
    k = np.linalg.solve(system, a.reshape(n_steps, 4 * d, d))
    steps = T._GAUSS_B @ k.reshape(n_steps, 4, d * d)
    return tree_product(np.eye(d) + h * steps.reshape(n_steps, d, d))
