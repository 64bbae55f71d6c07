"""Holonomy, trace functions and representation sampling for surface groups.

The word algebra lives in `words`, on the standard library alone.
Holonomy follows the path-composition rule hol(u then v) = hol(v) hol(u),
so the matrix of the later letter sits on the left.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        self.letters = np.concatenate([eye[None], self.images,
                                       np.linalg.inv(np.array(self.images[::-1]))])
        self.letters.flags.writeable = False


def holonomy(rep: Representation, word) -> np.ndarray:
    """hol(x_1 .. x_m) = rho(x_m) .. rho(x_1); later letters act later."""
    check_word(word, rep.genus)
    h = np.eye(rep.spec.matrix_dim, dtype=complex)
    for x in word:
        h = rep.letters[x] @ h
    return h


def prefix_holonomies(rep: Representation, word) -> tuple[np.ndarray, np.ndarray]:
    """(P, P^-1), two (m + 1, d, d) stacks: P_k = hol(w[:k]), each letter
    joined on the left, and its inverse, each inverse letter joined on the
    right.  The loop read from its kth segment is conjugate to the whole:
    hol(w[k:] + w[:k]) = P_k hol(w) P_k^-1."""
    check_word(word, rep.genus)
    pre, inv = [rep.letters[0]], [rep.letters[0]]
    for x in word:
        pre.append(rep.letters[x] @ pre[-1])
        inv.append(inv[-1] @ rep.letters[-x])
    return np.array(pre), np.array(inv)


# most entries of the (d, d, d, columns) product of one letter position;
# one column of the largest group that groups.MAX_ENTRIES admits, O(76),
# has 76^3 of them
_BLOCK = 2 ** 19


def trace_functions(reps, flat, lengths) -> np.ndarray:
    """f_w(rho) = Re tr hol_rho(w) of each word w under each rep, as an
    (R, W) array, batched over all words and reps at once.

    flat holds the letters of all W words and lengths splits it.  The reps
    must share one genus and one matrix size d: their letter tables are
    stacked on one column axis, read as (d, d, R(4g+1)), and column
    r W + w is word w under reps[r].  Words are right-aligned and padded
    in front with letter 0.  Each letter position is one gather of the
    columns' letters a, one broadcast product p[i, j, m] = a[i, j] h[j, m]
    and one np.add.reduce over j, which adds (p_0 + p_1) + p_2 + ... in
    order, as d multiply-adds would.  The trace adds the diagonal left to
    right from 0.0, so a word's trace does not depend on its batch.  The
    columns go through in blocks, so that the product holds at most
    _BLOCK entries.  An overflowing product gives a non-finite trace,
    not an exception.
    """
    if len({(rep.genus, rep.spec.matrix_dim) for rep in reps}) > 1:
        raise ValueError("representations of different genus or matrix size")
    out = np.empty((len(reps), len(lengths)))
    if not reps:
        return out
    g, d = reps[0].genus, reps[0].spec.matrix_dim
    bad = flat[(flat == 0) | (abs(flat) > 2 * g)]
    if bad.size:
        raise WordError(f"letter {bad[0]} out of range for genus {g}")
    n, size = int(lengths.max(initial=0)), 4 * g + 1
    # word w fills the last len(w) positions of its column of words
    words = np.zeros((n, len(lengths)), dtype=np.intp)
    words.T[np.arange(n) >= n - lengths[:, None]] = flat % size
    offsets = np.arange(0, size * len(reps), size)
    cols = (words[:, None] + offsets[:, None]).reshape(n, out.size)
    table = np.concatenate([rep.letters for rep in reps]).transpose(1, 2, 0).copy()
    width = max(1, _BLOCK // d ** 3)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, out.size, width):
            out.reshape(-1)[lo:lo + width] = _column_traces(table, cols[:, lo:lo + width])
    return out


def _column_traces(table, cols):
    """Re tr of the product of the letters in each column of cols, read
    from the (d, d, letters) table; the buffers live for one block."""
    d, (n, c) = table.shape[0], cols.shape
    a = np.empty((d, d, 1, c), dtype=complex)
    h, new = np.empty((2, d, d, c), dtype=complex)
    p = np.empty((d, d, d, c), dtype=complex)
    h[...] = table[..., :1]
    for k in range(n):
        # the letters were checked, so "clip" moves no index; it lets take
        # write straight into a, where "raise" would go through a buffer
        table.take(cols[k], axis=-1, out=a[:, :, 0], mode="clip")
        # h[None], not h: where every axis has size 1 numpy multiplies an
        # operand of fewer dimensions in another loop, which rounds
        # differently from the one that every wider batch takes
        np.multiply(a, h[None], out=p)
        np.add.reduce(p, axis=1, out=new)
        h, new = new, h
    trace = np.zeros(c)
    for i in range(d):
        trace += h[i, i].real
    return trace


def relator_residual(rep: Representation) -> float:
    r = holonomy(rep, relator(rep.genus))
    return float(np.linalg.norm(r - np.eye(rep.spec.matrix_dim)))


def _real_coords(x):
    # real parts, then imaginary parts, of each trailing (d, d) block
    return np.concatenate([x.real, x.imag], axis=-2).reshape(x.shape[:-2] + (-1,))


def _relator_parts(a, b, c):
    """a^-1, b^-1, b^-1 a^-1 b, core = B^-1 A^-1 B A and core C at (a, b),
    in the one association that the residual and the Jacobian share."""
    ainv, binv = np.linalg.inv(np.array([a, b]))
    bab = binv @ ainv @ b
    core = bab @ a
    return ainv, binv, bab, core, core @ c


def _relator_jacobian(a, b, c, basis, parts):
    # derivatives of B^-1 A^-1 B A C along A exp(e) and along B exp(e), for
    # all elements e of the stacked basis at once, as columns; parts are
    # _relator_parts(a, b, c)
    ainv, binv, bab, core, relc = parts
    da = -binv @ basis @ (ainv @ b @ a @ c) + core @ basis @ c
    db = -basis @ relc + bab @ basis @ (a @ c)
    return _real_coords(np.concatenate([da, db])).T


def _newton_last_handle(spec, images, tol):
    """Solve hol(relator) = I for the final handle pair (a_g, b_g), starting
    from the last two of the 2g images; the others stay fixed.

    The relator holonomy factors as B^-1 A^-1 B A C with C the known
    product of the earlier commutator blocks, C = I at genus 1.  Solving
    for B alone is rank-deficient (the image of B -> B^-1 A^-1 B A has
    codimension dim Z(A) inside the unimodular target set), so
    Gauss-Newton runs over the pair; updates X exp(xi) keep both iterates
    in the group.  The accepted iterate's inverses and products carry
    over to the next Jacobian.
    """
    eye = np.eye(spec.matrix_dim, dtype=complex)
    *earlier, a, b = images
    # a (2g - 2, d, d) stack, empty at genus 1, where np.array([]) is 1-d
    inv = np.linalg.inv(np.array(earlier).reshape(-1, *a.shape))
    c = eye
    for k in range(0, len(earlier), 2):
        # later handles act later, hence multiply on the left
        c = inv[k + 1] @ inv[k] @ earlier[k + 1] @ earlier[k] @ c
    basis = G.algebra_basis(spec)  # stacked (m, d, d)
    flat = basis.reshape(len(basis), -1)
    parts = _relator_parts(a, b, c)
    norm = np.linalg.norm(parts[-1] - eye)
    for _ in range(50):
        if norm <= tol:
            return a, b
        # the map is rank-deficient by construction; a cut-off well above
        # roundoff keeps its null directions, whose singular values are
        # only roundoff, from turning into enormous steps
        coef, *_ = np.linalg.lstsq(_relator_jacobian(a, b, c, basis, parts),
                                   -_real_coords(parts[-1] - eye), rcond=1e-10)
        # one (2, m) @ (m, d d) product, which rounds as tensordot does
        xab = (coef.reshape(2, -1) @ flat).reshape(2, *basis.shape[1:])
        step = 1.0
        # an overflowing trial's non-finite residual compares false like
        # any step that does not improve, so the step halves
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(12):
                try:
                    ea, eb = G.expm(step * xab)
                    an, bn = a @ ea, b @ eb
                    parts_n = _relator_parts(an, bn, c)
                except np.linalg.LinAlgError:
                    return None  # singular iterate: this try fails
                norm_n = np.linalg.norm(parts_n[-1] - eye)
                if norm_n < norm:
                    break
                step /= 2
            else:
                break  # no step improved: the try ends
        a, b, parts, norm = an, bn, parts_n, norm_n
    return (a, b) if norm <= tol else None


_MAX_TRIES = 32                    # fresh tries before RelatorError


def sample_representation(spec: G.GroupSpec, genus: int, rng: np.random.Generator,
                          tol: float = 1e-12) -> Representation:
    """Random representation of the genus-g surface group.

    2g random images from one draw, then Gauss-Newton on the last handle
    pair, with C = I at genus 1; fresh draws up to _MAX_TRIES, then
    RelatorError.
    """
    if genus < 1:
        raise WordError("genus must be >= 1")
    for _ in range(_MAX_TRIES):
        images = G.random_elements(spec, rng, 2 * genus)
        solved = _newton_last_handle(spec, images, tol)
        if solved is None:
            continue
        rep = Representation(spec, genus, images[:-2] + list(solved))
        if relator_residual(rep) <= max(tol, 1e-11):
            return rep
    raise RelatorError(f"no representation found after {_MAX_TRIES} attempts")
