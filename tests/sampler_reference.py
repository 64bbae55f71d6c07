"""The representation sampler in its plain form, kept as a bitwise oracle.

One standard-normal draw and one tensordot per random element, an expm
whose Pade sums are sum() calls from 0, one np.linalg.inv per matrix,
and an errstate around each line-search trial.  The library batches
these calls; tests/test_surface.py checks that every sampled image keeps
its bits, and tests/test_groups.py that expm does.
"""

from __future__ import annotations

import math

import numpy as np

from loopbracket import groups as G
from loopbracket.words import RelatorError, relator


# Higham (2005), Table 2.3 and eq. 2.2: theta_m and b_0 .. b_m of degree m
_PADE = {m: (theta, [math.factorial(2 * m - j) * math.factorial(m)
                     / (math.factorial(2 * m) * math.factorial(j)
                        * math.factorial(m - j)) for j in range(m + 1)])
         for m, theta in ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
                          (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
                          (13, 5.371920351148152e0))}


def expm(a) -> np.ndarray:
    a = np.asarray(a)
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    if not math.isfinite(norm):
        return np.full_like(a, np.nan)
    s = 0
    for m, (theta, b) in _PADE.items():
        if norm <= theta:
            break
    else:
        s = max(0, math.frexp(norm / theta)[1])
        a = a * 2.0 ** -s
    a2 = a @ a
    powers = [np.broadcast_to(np.eye(a.shape[-1]), a.shape), a2]
    while len(powers) <= m // 2:  # a^0, a^2, .., a^(m-1)
        powers.append(powers[-1] @ a2)
    u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers))
    v = sum(b[2 * k] * p for k, p in enumerate(powers))
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def random_algebra_element(spec, rng):
    basis = G.algebra_basis(spec)
    x = np.tensordot(rng.standard_normal(len(basis)), basis, axes=1)
    return x / np.sqrt(len(basis))


def random_element(spec, rng):
    return expm(0.5 * random_algebra_element(spec, rng))


def letters(spec, images):
    """The (4g+1, d, d) letter table of a Representation, one inverse at a time."""
    eye = np.eye(spec.matrix_dim, dtype=complex)
    images = [np.asarray(m, dtype=complex) for m in images]
    return np.stack([eye, *images, *map(np.linalg.inv, images[::-1])])


def _relator_residual(spec, genus, images):
    table = letters(spec, images)
    h = np.eye(spec.matrix_dim, dtype=complex)
    for x in relator(genus):
        h = table[x] @ h
    return float(np.linalg.norm(h - np.eye(spec.matrix_dim)))


def _real_coords(x):
    return np.stack([x.real, x.imag], axis=-3).reshape(x.shape[:-2] + (-1,))


def _relator_parts(a, b, c):
    ainv, binv = np.linalg.inv(a), np.linalg.inv(b)
    bab = binv @ ainv @ b
    core = bab @ a
    return ainv, binv, bab, core, core @ c


def _relator_jacobian(a, b, c, basis, parts):
    ainv, binv, bab, core, relc = parts
    da = -binv @ basis @ (ainv @ b @ a @ c) + core @ basis @ c
    db = -basis @ relc + bab @ basis @ (a @ c)
    return _real_coords(np.concatenate([da, db])).T


def _newton_last_handle(spec, rng, a_seed, earlier_blocks, tol):
    eye = np.eye(spec.matrix_dim, dtype=complex)
    c = eye
    for ak, bk in earlier_blocks:
        c = np.linalg.inv(bk) @ np.linalg.inv(ak) @ bk @ ak @ c
    basis = G.algebra_basis(spec)
    a, b = a_seed, random_element(spec, rng)
    parts = _relator_parts(a, b, c)
    norm = np.linalg.norm(parts[-1] - eye)
    for _ in range(50):
        if norm <= tol:
            return a, b
        coef, *_ = np.linalg.lstsq(_relator_jacobian(a, b, c, basis, parts),
                                   -_real_coords(parts[-1] - eye), rcond=1e-10)
        xab = np.tensordot(coef.reshape(2, -1), basis, axes=1)
        step = 1.0
        for _ in range(12):
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    ea, eb = expm(step * xab)
                    an, bn = a @ ea, b @ eb
                    parts_n = _relator_parts(an, bn, c)
                except np.linalg.LinAlgError:
                    return None
                norm_n = np.linalg.norm(parts_n[-1] - eye)
                improved = norm_n < norm
            if improved:
                a, b, parts, norm = an, bn, parts_n, norm_n
                break
            step /= 2
        else:
            break
    return (a, b) if norm <= tol else None


def sample_images(spec, genus, rng, tol=1e-12):
    """The images sample_representation(spec, genus, rng, tol) returns;
    RelatorError once every try fails."""
    for _ in range(32):
        earlier = [(random_element(spec, rng), random_element(spec, rng))
                   for _ in range(genus - 1)]
        solved = _newton_last_handle(spec, rng, random_element(spec, rng),
                                     earlier, tol)
        if solved is None:
            continue
        images = [m for pair in earlier for m in pair] + list(solved)
        if _relator_residual(spec, genus, images) <= max(tol, 1e-11):
            return images
    raise RelatorError("no representation found after 32 attempts")
