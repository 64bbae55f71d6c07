"""Parallel transport as an iterated-integral series, plus perturbed holonomy.

picard_transport solves dR/dt = sign * A(t) R, R(0) = I, by the Picard
iteration: R = sum of T_k with T_0 = I and T_k(t) = int_0^t A T_{k-1},
so the kth term is the k-fold time-ordered integral with the largest time
leftmost.  Composite trapezoid on a shared grid evaluates every level;
declared breakpoints are merged into the grid and cell-end samples back
off into the owning cell, which keeps piecewise-constant integrands exact
per cell.  The tail of the series is certified by |T_k| <= Rhat^k / k!
with Rhat = int |A(t)|_2 dt, and remainder_bound sums that tail stably.

Perturbed holonomy of a word: each letter's arc carries a constant
algebra-valued perturbation (inverse letters traverse it backwards), the
current-frame equation is P' = -m B_j P with a crossing jump rho(x_j) at
each arc end, and the substitution P = psi R with psi the unperturbed
prefix holonomy turns it into a transport problem whose coefficient is
constant on each arc, C_j = -psi_j^-1 B_j psi_j integrated over the arc.
No grid is needed: by Chen's concatenation identity the arc's levels
are C_j^k / k! and the word's levels are the truncated Cauchy product of
the arcs' level lists, exact up to rounding.  The perturbed holonomy is
hol(w) R(1), it is multiplicative for concatenation, and the exposed
series terms V_k = hol R_k hol^-1 satisfy the concatenation rule tested
in the suites.  Its remainder_bound covers the returned value: the
series tail times |hol|_2 plus a stated rounding term (see
perturbed_holonomy).  An arc-by-arc RK4 integrator in the current frame
is the independent second route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import surface as S


@dataclass
class MatrixPath:
    """Time-dependent square matrix A(t) on [0, 1].

    breakpoints lists interior discontinuity times; samplers built here
    are right-continuous at them.
    """

    fn: callable
    dim: int
    breakpoints: tuple[float, ...] = ()

    def __call__(self, t: float) -> np.ndarray:
        return self.fn(t)

    @classmethod
    def piecewise_constant(cls, values) -> "MatrixPath":
        values = [np.asarray(v, dtype=complex) for v in values]
        m = len(values)
        bounds = np.arange(1, m) / m

        def fn(t):
            i = min(int(np.searchsorted(bounds, t, side="right")), m - 1)
            return values[i]

        return cls(fn, values[0].shape[0], tuple(bounds))

    @classmethod
    def concat(cls, first: "MatrixPath", second: "MatrixPath") -> "MatrixPath":
        """Path running first on [0, 1/2], then second, clocks doubled."""

        def fn(t):
            if t < 0.5:
                return 2.0 * first.fn(2.0 * t)
            return 2.0 * second.fn(2.0 * t - 1.0)

        breaks = tuple(b / 2 for b in first.breakpoints) + (0.5,) + \
            tuple(0.5 + b / 2 for b in second.breakpoints)
        return cls(fn, first.dim, breaks)


def _grid(path: MatrixPath, n_steps: int) -> np.ndarray:
    base = np.linspace(0.0, 1.0, n_steps + 1)
    if path.breakpoints:
        base = np.union1d(base, np.asarray(path.breakpoints))
    return base


def _cell_samples(path: MatrixPath, grid: np.ndarray, sign: int):
    """A at each cell's left edge and just inside its right edge."""
    nudge = bool(path.breakpoints)
    left, right = [], []
    for i in range(len(grid) - 1):
        h = grid[i + 1] - grid[i]
        left.append(sign * path.fn(grid[i]))
        tr = grid[i + 1] - 1e-6 * h if nudge else grid[i + 1]
        right.append(sign * path.fn(tr))
    return left, right


def series_tail_bound(r_hat: float, n_max: int) -> float:
    """sum_{k > n_max} r^k / k!, or inf when that overflows a double.

    The terms grow while k < r and then fall off, so the sum runs past
    k = r until the terms are negligible (below 1e-300).
    """
    if not r_hat < math.inf:
        return math.inf
    try:
        term = r_hat ** (n_max + 1) / math.factorial(n_max + 1)
    except OverflowError:
        return math.inf
    total, k = 0.0, n_max + 1
    while term > 1e-300 or k < r_hat:
        total += term
        if total == math.inf:
            return math.inf
        k += 1
        term *= r_hat / k
    return total


@dataclass
class TransportResult:
    terms: list[np.ndarray]        # T_0 .. T_n_max at t = 1
    transport: np.ndarray          # their sum
    r_hat: float
    remainder_bound: float


def picard_transport(path: MatrixPath, n_max: int = 12, n_steps: int = 2000,
                     sign: int = 1) -> TransportResult:
    """Truncated time-ordered exponential of sign * A along the path."""
    grid = _grid(path, n_steps)
    al, ar = _cell_samples(path, grid, sign)
    al = np.stack(al)
    ar = np.stack(ar)
    h = np.diff(grid)[:, None, None]
    d = path.dim
    npts = len(grid)
    eye = np.eye(d, dtype=complex)
    r_hat = float(np.sum(h[:, 0, 0] / 2 * (np.linalg.norm(al, 2, axis=(1, 2))
                                          + np.linalg.norm(ar, 2, axis=(1, 2)))))
    prev = np.broadcast_to(eye, (npts, d, d)).copy()
    terms = [eye.copy()]
    total = eye.copy()
    for _ in range(n_max):
        inc = (h / 2) * (al @ prev[:-1] + ar @ prev[1:])
        cur = np.zeros_like(prev)
        np.cumsum(inc, axis=0, out=cur[1:])
        terms.append(cur[-1].copy())
        total = total + cur[-1]
        prev = cur
    return TransportResult(terms, total, r_hat, series_tail_bound(r_hat, n_max))


def rk4_transport(path: MatrixPath, n_steps: int = 2000, sign: int = 1) -> np.ndarray:
    """Classical RK4 for dR/dt = sign * A(t) R on the same aligned grid."""
    grid = _grid(path, n_steps)
    nudge = bool(path.breakpoints)
    r = np.eye(path.dim, dtype=complex)
    for i in range(len(grid) - 1):
        t0, t1 = grid[i], grid[i + 1]
        h = t1 - t0
        a0 = sign * path.fn(t0)
        am = sign * path.fn(t0 + h / 2)
        a1 = sign * path.fn(t1 - 1e-6 * h if nudge else t1)
        k1 = a0 @ r
        k2 = am @ (r + h / 2 * k1)
        k3 = am @ (r + h / 2 * k2)
        k4 = a1 @ (r + h * k3)
        r = r + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return r


@dataclass
class PerturbedHolonomy:
    hol: np.ndarray                # unperturbed holonomy
    value: np.ndarray              # perturbed holonomy hol @ R(1)
    series: list[np.ndarray]       # exposed terms V_k = hol T_k hol^-1
    r_hat: float
    remainder_bound: float         # bounds |value - exact|_2


def perturbed_holonomy(rep: S.Representation, pert: dict, word,
                       n_max: int = 12) -> PerturbedHolonomy:
    """Perturbed holonomy of a word by Chen concatenation of its arcs.

    pert maps generator index k to a constant algebra element B_k; the
    arc of an inverse letter carries -B_k.  Arc j has the constant
    start-frame coefficient C_j = -psi_j^-1 B_j psi_j over the whole arc
    (psi_j the prefix holonomy), so its levels are C_j^k / k! and the
    levels of the word are their truncated Cauchy product, later arcs on
    the left.

    remainder_bound = |hol|_2 tail(r_hat, n_max)
                      + (m + n_max) d u e^r_hat prod_j |rho(x_j)|_2,
    with m letters, d the matrix size and u = 2^-53: series truncation
    plus a Higham gamma_n estimate of the rounding in the m + n_max
    chained products of d x d matrices.
    """
    S.check_word(word, rep.genus)
    d = rep.spec.matrix_dim
    eye = np.eye(d, dtype=complex)
    psi, psi_inv = eye, eye
    levels = np.zeros((n_max + 1, d, d), dtype=complex)
    levels[0] = eye
    arc = levels.copy()            # arc[0] = I; arc[k] rewritten per arc
    r_hat, letters_norm = 0.0, 1.0
    for x in word:
        b = np.asarray(pert[abs(x)], dtype=complex)
        c = psi_inv @ (b if x < 0 else -b) @ psi
        for k in range(1, n_max + 1):
            arc[k] = arc[k - 1] @ c / k
        new = np.zeros_like(levels)
        for i in range(n_max + 1):
            new[i:] += arc[:n_max + 1 - i] @ levels[i]
        levels = new
        r_hat += float(np.linalg.norm(c, 2))
        letters_norm *= float(np.linalg.norm(rep.image(x), 2))
        psi = rep.image(x) @ psi
        psi_inv = psi_inv @ rep.image(-x)
    with np.errstate(over="ignore"):  # past r = 709.78 the bound is inf
        rounding = (len(word) + n_max) * d * 2.0 ** -53 * np.exp(r_hat) * letters_norm
    bound = float(np.linalg.norm(psi, 2) * series_tail_bound(r_hat, n_max)
                  + rounding)
    series = [psi @ t @ psi_inv for t in levels]
    return PerturbedHolonomy(psi, psi @ levels.sum(axis=0), series, r_hat, bound)


def rk4_perturbed_holonomy(rep: S.Representation, pert: dict, word,
                           n_steps: int = 2000) -> np.ndarray:
    """Current-frame route: integrate each arc, then apply the crossing.

    On a constant arc one classical RK4 step of size h is the fixed
    matrix I + hC + (hC)^2/2 + (hC)^3/6 + (hC)^4/24, so the arc's steps
    are one matrix power of it.
    """
    w = list(word)
    d = rep.spec.matrix_dim
    p = np.eye(d, dtype=complex)
    if not w:
        return p
    m = len(w)
    steps = max(1, n_steps // m)
    h = 1.0 / (m * steps)
    for x in w:
        b = np.asarray(pert[abs(x)], dtype=complex)
        if x < 0:
            b = -b
        hc = h * (-m * b)
        hc2 = hc @ hc
        step = np.eye(d) + hc + hc2 / 2 + hc2 @ hc / 6 + hc2 @ hc2 / 24
        p = rep.image(x) @ np.linalg.matrix_power(step, steps) @ p
    return p


def expm_perturbed_holonomy(rep: S.Representation, pert: dict, word) -> np.ndarray:
    """Closed form: each arc has a constant coefficient, so it contributes
    exp(-B_j) in the current frame, giving prod_j rho(x_j) exp(-B_j) with
    the last letter's factors leftmost."""
    from scipy.linalg import expm

    d = rep.spec.matrix_dim
    p = np.eye(d, dtype=complex)
    for x in word:
        b = np.asarray(pert[abs(x)], dtype=complex)
        if x < 0:
            b = -b
        p = rep.image(x) @ expm(-b) @ p
    return p
