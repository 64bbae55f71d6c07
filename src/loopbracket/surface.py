"""Holonomy, trace functions and representation sampling for surface groups.

The word algebra lives in `words`, on the standard library alone.
Holonomy follows the path-composition rule hol(u then v) = hol(v) hol(u),
so the matrix of the later letter sits on the left.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import groups as G
from .words import RelatorError, WordError, check_word, relator


@dataclass
class Representation:
    """Images of the generators a_1, b_1, .., a_g, b_g in one group.

    letters, (4g+1, d, d) and read-only, holds rho(x) at letters[x] for
    every letter x: the identity at 0, the images at 1..2g and their
    inverses last, in reverse order, so that letters[-k] = rho(k)^-1.
    Index it by a letter or a list, never a tuple, of checked letters.
    """

    spec: G.GroupSpec
    genus: int
    images: list[np.ndarray]
    letters: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.images) != 2 * self.genus:
            raise WordError("need one image per generator")
        self.images = [np.asarray(m, dtype=complex) for m in self.images]
        eye = np.eye(self.spec.matrix_dim, dtype=complex)
        self.letters = np.stack([eye, *self.images,
                                 *map(np.linalg.inv, self.images[::-1])])
        self.letters.flags.writeable = False


def holonomy(rep: Representation, word) -> np.ndarray:
    """hol(x_1 .. x_m) = rho(x_m) .. rho(x_1); later letters act later."""
    check_word(word, rep.genus)
    h = np.eye(rep.spec.matrix_dim, dtype=complex)
    for x in word:
        h = rep.letters[x] @ h
    return h


def trace_functions(rep: Representation, words) -> list[float]:
    """f_w(rho) = Re tr hol(w) of each word, batched over all words at once.

    Words are right-aligned and padded in front with letter 0, and each
    letter position is one elementwise pass over the batch axis of the
    letter table read as (d, d, 4g+1): new[i, m] = sum_j a[i, j] h[j, m],
    d multiply-adds in place of one small matmul per word.  An
    overflowing product gives a non-finite trace, not an exception.
    """
    g = rep.genus
    lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
    flat = np.fromiter(chain.from_iterable(words), dtype=np.intp,
                       count=int(lengths.sum()))
    bad = flat[(flat == 0) | (abs(flat) > 2 * g)]
    if bad.size:
        raise WordError(f"letter {bad[0]} out of range for genus {g}")
    n = int(lengths.max(initial=0))
    # word w fills the last len(w) positions of its column of cols
    cols = np.zeros((n, len(words)), dtype=np.intp)
    cols.T[np.arange(n) >= n - lengths[:, None]] = flat
    table = np.moveaxis(rep.letters, 0, -1)
    d = table.shape[0]
    h = np.broadcast_to(table[..., :1], (d, d, len(words)))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            a = table[..., cols[k]]
            new = a[:, :1] * h[:1]
            for j in range(1, d):
                new += a[:, j:j + 1] * h[j:j + 1]
            h = new
    return np.trace(h).real.tolist()


def relator_residual(rep: Representation) -> float:
    r = holonomy(rep, relator(rep.genus))
    return float(np.linalg.norm(r - np.eye(rep.spec.matrix_dim)))


def _commuting_pair(spec, rng):
    # exp of two odd polynomials in one algebra element: odd powers stay
    # in every supported algebra, so both images are group members and
    # they commute exactly
    x = G.random_algebra_element(spec, rng)
    nx = np.linalg.norm(x)
    if nx < 1e-12:
        raise RelatorError("degenerate algebra sample")
    x = x / nx
    c = rng.uniform(0.3, 0.9, size=4) * np.where(rng.integers(0, 2, size=4), 1, -1)
    x3 = x @ x @ x
    return G.expm(np.stack([c[0] * x + c[1] * x3, c[2] * x + c[3] * x3]))


def _real_coords(x):
    # real parts, then imaginary parts, of each trailing (d, d) block
    return np.stack([x.real, x.imag], axis=-3).reshape(x.shape[:-2] + (-1,))


def _relator_jacobian(a, b, c, basis):
    # derivatives of B^-1 A^-1 B A C along A exp(e) and along B exp(e), for
    # all elements e of the stacked basis at once, as columns
    ainv, binv = np.linalg.inv(a), np.linalg.inv(b)
    core = binv @ ainv @ b @ a
    da = -binv @ basis @ (ainv @ b @ a @ c) + core @ basis @ c
    db = -basis @ (core @ c) + (binv @ ainv @ b) @ basis @ (a @ c)
    return _real_coords(np.concatenate([da, db])).T


def _newton_last_handle(spec, rng, a_seed, earlier_blocks, tol):
    """Solve hol(relator) = I for the final handle pair (a_g, b_g).

    The relator holonomy factors as B^-1 A^-1 B A C with C the known
    product of the earlier commutator blocks.  Solving for B alone is
    rank-deficient (the image of B -> B^-1 A^-1 B A has codimension
    dim Z(A) inside the unimodular target set), so Gauss-Newton runs
    over the pair; updates X exp(xi) keep both iterates in the group.
    """
    eye = np.eye(spec.matrix_dim, dtype=complex)
    c = eye
    for ak, bk in earlier_blocks:
        # later handles act later, hence multiply on the left
        c = np.linalg.inv(bk) @ np.linalg.inv(ak) @ bk @ ak @ c
    basis = G.algebra_basis(spec)  # stacked (m, d, d)
    a, b = a_seed, G.random_element(spec, rng)

    def residual(am, bm):
        return np.linalg.inv(bm) @ np.linalg.inv(am) @ bm @ am @ c - eye

    r = residual(a, b)
    for _ in range(50):
        if np.linalg.norm(r) <= tol:
            return a, b
        # the map is rank-deficient by construction; a cut-off well above
        # roundoff keeps its null directions, whose singular values are
        # only roundoff, from turning into enormous steps
        coef, *_ = np.linalg.lstsq(_relator_jacobian(a, b, c, basis),
                                   -_real_coords(r), rcond=1e-10)
        xab = np.tensordot(coef.reshape(2, -1), basis, axes=1)
        step = 1.0
        for _ in range(12):
            # an overflowing trial's non-finite residual compares false
            # like any step that does not improve, so the step halves
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    ea, eb = G.expm(step * xab)
                    an, bn = a @ ea, b @ eb
                    rn = residual(an, bn)
                except np.linalg.LinAlgError:
                    return None  # singular iterate: this try fails
                improved = np.linalg.norm(rn) < np.linalg.norm(r)
            if improved:
                a, b, r = an, bn, rn
                break
            step /= 2
        else:
            break
    return (a, b) if np.linalg.norm(r) <= tol else None


_MAX_TRIES = 32                    # fresh tries before RelatorError


def sample_representation(spec: G.GroupSpec, genus: int, rng: np.random.Generator,
                          tol: float = 1e-12) -> Representation:
    """Random representation of the genus-g surface group.

    Genus 1: a commuting pair.  Genus >= 2: random images for the first
    g-1 handles, Gauss-Newton on the last handle pair; fresh seeds up
    to _MAX_TRIES, then RelatorError.
    """
    if genus < 1:
        raise WordError("genus must be >= 1")
    for _ in range(_MAX_TRIES):
        if genus == 1:
            a, b = _commuting_pair(spec, rng)
            rep = Representation(spec, 1, [a, b])
        else:
            earlier = [(G.random_element(spec, rng), G.random_element(spec, rng))
                       for _ in range(genus - 1)]
            solved = _newton_last_handle(spec, rng, G.random_element(spec, rng),
                                         earlier, tol)
            if solved is None:
                continue
            images = [m for pair in earlier for m in pair] + list(solved)
            rep = Representation(spec, genus, images)
        if relator_residual(rep) <= max(tol, 1e-11):
            return rep
    raise RelatorError(f"no representation found after {_MAX_TRIES} attempts")
