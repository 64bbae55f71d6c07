"""Surface group words, holonomy, and representation sampling.

Words in the standard genus-g presentation < a_1, b_1, .., a_g, b_g |
prod [a_i, b_i] > are lists of signed integers: a_k is 2k-1, b_k is 2k,
and negation is inversion.  The token form is a1 b1 A1 B1 with capitals
for inverses.

Holonomy follows the path-composition rule hol(u then v) = hol(v) hol(u),
so the matrix of the later letter sits on the left:

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
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from . import groups as G


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
    w = cyclic_reduce(word)
    if not w:
        return ()
    # the least rotation starts at an occurrence of the least letter
    n, first = len(w), min(w)
    doubled = tuple(w) * 2
    return min(doubled[i:i + n] for i in range(n) if w[i] == first)


def relator(genus: int) -> list[int]:
    out = []
    for k in range(1, genus + 1):
        out += [2 * k - 1, 2 * k, -(2 * k - 1), -(2 * k)]
    return out


def homotopy_variants(word, genus: int, rng: np.random.Generator, count: int):
    """Words in the same free homotopy class on the closed surface.

    Random compositions of cyclic rotation, conjugation, cancelling-pair
    insertion, and insertion of a conjugated surface relator.
    """
    rel = relator(genus)
    out = []
    for _ in range(count):
        w = list(word)
        for _ in range(int(rng.integers(1, 4))):
            move = int(rng.integers(0, 4))
            if move == 0 and w:
                k = int(rng.integers(0, len(w)))
                w = w[k:] + w[:k]
            elif move == 1:
                c = int(rng.integers(1, 2 * genus + 1))
                if rng.integers(0, 2):
                    c = -c
                w = [c] + w + [-c]
            elif move == 2:
                x = int(rng.integers(1, 2 * genus + 1))
                if rng.integers(0, 2):
                    x = -x
                k = int(rng.integers(0, len(w) + 1))
                w = w[:k] + [x, -x] + w[k:]
            else:
                r = list(rel) if rng.integers(0, 2) else inverse_word(rel)
                c = int(rng.integers(1, 2 * genus + 1))
                k = int(rng.integers(0, len(w) + 1))
                w = w[:k] + [c] + r + [-c] + w[k:]
        out.append(w)
    return out


@dataclass
class Representation:
    """Images of the generators a_1, b_1, .., a_g, b_g in one group."""

    spec: G.GroupSpec
    genus: int
    images: list[np.ndarray]
    _inv: list[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if len(self.images) != 2 * self.genus:
            raise WordError("need one image per generator")
        self.images = [np.asarray(m, dtype=complex) for m in self.images]
        self._inv = [np.linalg.inv(m) for m in self.images]

    def image(self, letter: int) -> np.ndarray:
        if letter > 0:
            return self.images[letter - 1]
        return self._inv[-letter - 1]


def holonomy(rep: Representation, word) -> np.ndarray:
    """hol(x_1 .. x_m) = rho(x_m) .. rho(x_1); later letters act later."""
    check_word(word, rep.genus)
    h = np.eye(rep.spec.matrix_dim, dtype=complex)
    for x in word:
        h = rep.image(x) @ h
    return h


def trace_function(rep: Representation, word) -> float:
    """f_w(rho) = Re tr hol(w); constant on free homotopy classes."""
    return G.invariant_f(rep.spec, holonomy(rep, word))


def trace_functions(rep: Representation, words) -> list[float]:
    """trace_function of each word, batched over words of equal length.

    Letter matrices are stacked once (identity, images, inverses) and
    each length class runs one stacked matmul per letter position.
    """
    g = rep.genus
    stack = np.stack([np.eye(rep.spec.matrix_dim, dtype=complex),
                      *rep.images, *(rep.image(-k) for k in range(1, 2 * g + 1))])
    by_length: dict[int, list[int]] = {}
    for pos, word in enumerate(words):
        by_length.setdefault(len(word), []).append(pos)
    out = [0.0] * len(words)
    for length, positions in by_length.items():
        w = np.array([words[p] for p in positions], dtype=np.intp)
        bad = w[(w == 0) | (abs(w) > 2 * g)]
        if bad.size:
            raise WordError(f"letter {bad[0]} out of range for genus {g}")
        # stack row of letter x: x for a_k/b_k, 2g - x for inverses
        rows = np.where(w > 0, w, 2 * g - w)
        h = np.broadcast_to(stack[0], (len(positions),) + stack[0].shape)
        for k in range(length):
            h = stack[rows[:, k]] @ h
        traces = np.trace(h, axis1=1, axis2=2).real
        for p, f in zip(positions, traces.tolist()):
            out[p] = f
    return out


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
    a = expm(c[0] * x + c[1] * (x @ x @ x))
    b = expm(c[2] * x + c[3] * (x @ x @ x))
    return a, b


def _newton_last_handle(spec, rng, a_seed, earlier_blocks, tol):
    """Solve hol(relator) = I for the final handle pair (a_g, b_g).

    The relator holonomy factors as B^-1 A^-1 B A C with C the known
    product of the earlier commutator blocks.  Solving for B alone is
    rank-deficient (the image of B -> B^-1 A^-1 B A has codimension
    dim Z(A) inside the unimodular target set), so Gauss-Newton runs
    over the pair; updates X exp(xi) keep both iterates in the group.
    """
    d = spec.matrix_dim
    eye = np.eye(d, dtype=complex)
    c = eye
    for ak, bk in earlier_blocks:
        blk = np.linalg.inv(bk) @ np.linalg.inv(ak) @ bk @ ak
        c = blk @ c  # later handles act later, hence multiply on the left
    basis = G.algebra_basis(spec)
    a = a_seed
    b = G.random_element(spec, rng)

    def residual(am, bm):
        return np.linalg.inv(bm) @ np.linalg.inv(am) @ bm @ am @ c - eye

    def vec(m):
        return np.r_[m.real.ravel(), m.imag.ravel()]

    r = residual(a, b)
    for _ in range(50):
        if np.linalg.norm(r) <= tol:
            return a, b
        ainv, binv = np.linalg.inv(a), np.linalg.inv(b)
        core = binv @ ainv @ b @ a
        cols = []
        for e in basis:  # a-direction
            de = -binv @ e @ ainv @ b @ a @ c + core @ e @ c
            cols.append(vec(de))
        for e in basis:  # b-direction
            de = -e @ core @ c + binv @ ainv @ b @ e @ a @ c
            cols.append(vec(de))
        jac = np.array(cols).T
        coef, *_ = np.linalg.lstsq(jac, -vec(r), rcond=None)
        m = len(basis)
        xa = sum(ci * ei for ci, ei in zip(coef[:m], basis))
        xb = sum(ci * ei for ci, ei in zip(coef[m:], basis))
        step = 1.0
        for _ in range(12):
            # an overflowing trial's non-finite residual compares false
            # like any step that does not improve, so the step halves
            with np.errstate(over="ignore", invalid="ignore"):
                an, bn = a @ expm(step * xa), b @ expm(step * xb)
                try:
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
    if np.linalg.norm(r) <= tol:
        return a, b
    return None


def sample_representation(spec: G.GroupSpec, genus: int, rng: np.random.Generator,
                          tol: float = 1e-12, max_tries: int = 32) -> Representation:
    """Random representation of the genus-g surface group.

    Genus 1: a commuting pair.  Genus >= 2: random images for the first
    g-1 handles, Gauss-Newton on the last handle pair; fresh seeds up
    to max_tries, then RelatorError.
    """
    if genus < 1:
        raise WordError("genus must be >= 1")
    for _ in range(max_tries):
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
            images = []
            for ak, bk in earlier:
                images.extend([ak, bk])
            images.extend(solved)
            rep = Representation(spec, genus, images)
        if relator_residual(rep) <= max(tol, 1e-11):
            return rep
    raise RelatorError(f"no representation found after {max_tries} attempts")
