"""Parallel transport as an iterated-integral series, plus perturbed holonomy.

picard_transport solves dR/dt = A(t) R, R(0) = I, by the Picard
iteration: R = sum of T_k with T_0 = I and T_k(t) = int_0^t A T_{k-1},
so the kth term is the k-fold time-ordered integral with the largest time
leftmost.  Every level is integrated spectrally (Greengard, SIAM J.
Numer. Anal. 28, 1991) on Chebyshev panels.  A panel samples A at 17,
then 33, then 65 nested Chebyshev points of the second kind, each t
once, at a Python float, through one functools.cache of A into one array
of the 65 nodes, until the chop rule holds: the upper half of the
interpolant's Chebyshev coefficients is below 64 u (u = 2^-53) of the
largest, or of the largest on the whole path if that is larger.  A is
then resolved at half the degree, so each product A T_{k-1} is
integrated by the panel's integration matrix without aliasing.  The
levels run in real arithmetic: a complex A acts on the columns
[Re T; Im T] as the real block [[Re A, -Im A], [Im A, Re A]].  A panel
still unresolved at 65 points is bisected, and the halves' levels are
joined by Chen's identity, the product of block-Toeplitz jets that
perturbed holonomy also uses.  Bisection stops at panels of length
2^-12, where a kink or a jump is left, and after 5 bisections along a
chain of panels that left both halves unresolved, where noise is left;
the first rule bounds the depth, the second the width, and neither
depends on where along [0, 1] the other panels lie.  A panel whose
samples are all equal takes the closed-form arc levels C^k / k!.

The certificate rests on |T_k| <= r^k / k! for any r >= int |A(t)|_2 dt.
r_hat is, per panel, a trapezoid sum of |A_N|_2 over 32 cells of the
interpolant A_N (the norm of its linear interpolant is convex, so the
chords lie above it), plus a bound on the rest from the Chebyshev
coefficients of A_N'', plus the panel length times the coefficient-tail
estimate of |A - A_N|.  remainder_bound is tail(r_hat, n_max) plus, over
panels, (length * tail estimate + (n_max + N) d u) e^r_hat.  The series
tail and the A_N'' term are bounds; the coefficient tail (twice the sum
of the upper half of the coefficient norms) is an estimate of the
interpolation error, as the rounding term is of the rounding, not a
bound.  rk4_transport is the independent route: the 4-stage
Gauss-Legendre Runge-Kutta method, of order 8, on n_steps uniform steps
(32 by default).  It samples the path at the 4 n_steps Gauss nodes,
interior and irrational, and shares nothing with the series.

Perturbed holonomy of a word: each letter's arc carries a constant
algebra-valued perturbation (inverse letters traverse it backwards), the
current-frame equation is P' = -m B_j P with a crossing jump rho(x_j) at
each arc end, and the substitution P = psi R with psi the unperturbed
prefix holonomy gives a transport problem whose coefficient C_j =
-psi_j^-1 B_j psi_j is constant on each arc.  No grid is needed: an arc's
levels C_j^k / k! are the blocks of its jet exp(N x C_j), N the nilpotent
shift on n_max + 1 levels, so the series ends by itself, and by Chen's
identity the word's levels are the product of the arcs' jets.  The
perturbed holonomy is hol(w) R(1); it is multiplicative, its terms
V_k = hol R_k hol^-1 obey the concatenation rule the suites test, and its
remainder_bound adds a bound on the series tail to an estimate of the
rounding, and as a whole is an estimate (see perturbed_holonomy).  The
independent route, rk4_perturbed_holonomy, multiplies the crossings with
the arcs' exact current-frame transports exp(-B_j): no series, no grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import groups as G
from . import surface as S
from . import words as W


@dataclass
class MatrixPath:
    """Smooth time-dependent square matrix A(t) on [0, 1]."""

    fn: callable
    dim: int

    def __call__(self, t: float) -> np.ndarray:
        return self.fn(t)


def series_tail_bound(r_hat: float, n_max: int) -> float:
    """sum_{k > n_max} r^k / k!, or inf when that overflows a double.

    The terms grow while k < r and then fall off, so the sum runs past
    k = r until a term is below 1e-300 or half an ulp of the sum.
    """
    if not r_hat < math.inf:
        return math.inf
    try:
        term = r_hat ** (n_max + 1) / math.factorial(n_max + 1)
    except OverflowError:
        return math.inf
    total, k = 0.0, n_max + 1
    while k < r_hat or (term > 1e-300 and term >= math.ulp(total) / 2):
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
    r_hat: float                   # upper bound on int_0^1 |A(t)|_2 dt
    remainder_bound: float         # see picard_transport
    nodes: int                     # distinct t at which the path was sampled


_U = 2.0 ** -53
_SIZES = (17, 33, 65)              # nested Chebyshev grids of one panel
_CHOP = 64 * _U                    # relative size of a negligible coefficient;
                                   # sample rounding alone reaches 10-20 u of
                                   # the path's scale
_MAX_DEPTH = 12                    # bisections down to the shortest panel
_MAX_FORKS = 5                     # bisections along a chain of panels that
                                   # leave both halves unresolved
_TRAP = 32                         # trapezoid cells of the r_hat bound


def _chebyshev(size: int):
    """Nodes and matrices of the size-point Chebyshev grid on [0, 1].

    The nodes x_j = (1 - cos(pi j / n)) / 2, n = size - 1, increase from
    0 to 1 and are those of the second kind, so each grid holds every
    other node of the next.  With s = 2x - 1 and the interpolant
    p = sum_k c_k T_k(s), returns (x, coef, integ, trap, second): coef
    maps values to the c_k, integ maps values to the integral of p over
    [0, x_j] (numpy's chebint, from s = -1, at the nodes), trap maps
    values to p at _TRAP + 1 equispaced points, and second maps values
    to the Chebyshev coefficients of d^2 p / ds^2 (numpy's chebder).
    """
    from numpy.polynomial import chebyshev as C

    n = size - 1
    theta = np.pi * np.arange(size) / n
    x = np.sin(theta / 2) ** 2
    k = np.arange(size + 1)
    t_k = (-1.0) ** k * np.cos(np.outer(theta, k))   # T_k(s_j), s_j = -cos theta_j
    w = np.ones(size)
    w[[0, -1]] = 0.5
    coef = (2.0 / n) * (w[:, None] * t_k[:, :size] * w[None, :]).T
    integ = 0.5 * t_k @ C.chebint(np.eye(size), lbnd=-1) @ coef  # dt = ds / 2
    s_trap = np.linspace(-1.0, 1.0, _TRAP + 1)
    trap = np.cos(np.outer(np.arccos(s_trap), k[:size])) @ coef
    return x, coef, integ, trap, C.chebder(np.eye(size), 2) @ coef


@cache
def _grids() -> dict:
    """_chebyshev(size) for every size in _SIZES, all built on the first
    call, so that no later transport pays for building a grid."""
    return {size: _chebyshev(size) for size in _SIZES}


def _arc_levels(c: np.ndarray, n_max: int) -> np.ndarray:
    """Levels C^k / k!, k <= n_max, of a stack of constant coefficients C."""
    arc = np.empty((n_max + 1, *c.shape), dtype=complex)
    arc[0] = np.eye(c.shape[-1])
    for k in range(1, n_max + 1):
        arc[k] = arc[k - 1] @ c / k
    return np.moveaxis(arc, 0, -3)


@cache
def _jet_index(size: int, d: int) -> np.ndarray:
    """Flat index of each jet entry into its levels followed by a zero
    level: block (i, j) is level i - j, or the zero level above i = j."""
    k, r = np.arange(size), np.arange(d)
    i = np.where(k[:, None] >= k, k[:, None] - k, size)
    return ((i[:, None, :, None] * d + r[:, None, None]) * d + r).reshape(size * d, -1)


def _chen_product(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Levels of path earlier followed by each path of the stack later, by
    Chen's identity: a path's jet, block lower-triangular Toeplitz with
    block T_(i-j) at (i, j), maps the levels before it to those after."""
    size, d = earlier.shape[0], earlier.shape[-1]
    later = later.reshape(-1, size * d * d)
    padded = np.concatenate([later, np.zeros((len(later), d * d))], axis=1)
    out = earlier.reshape(size * d, d)
    for jet in np.take(padded, _jet_index(size, d), axis=1):
        out = jet @ out
    return out.reshape(size, d, d)


def _fit(samples: callable, a: float, b: float, scale: float):
    """A on [a, b], read through the cache samples(t) = A(t), at the
    first nested Chebyshev grid that resolves it, else at 65 points, as
    (f, c, resolved): the samples, the Frobenius norms of the
    interpolant's Chebyshev coefficients, and whether the samples are
    all equal or the chop rule holds, that is the upper half of c is
    below _CHOP times the larger of scale and max c.  The upper half, so
    that A is resolved at half the degree and the products A T_k are
    integrated without aliasing.  Each node is sampled once, at a Python
    float, into one array of all 65 nodes, and each grid is a stride
    view of it."""
    grids = _grids()
    t = (a + (b - a) * grids[_SIZES[-1]][0]).tolist()
    f = np.empty((len(t), *np.shape(samples(t[0]))))
    for size in _SIZES:
        stride = (len(t) - 1) // (size - 1)
        nodes = slice(0, None, stride) if size == _SIZES[0] else slice(stride, None, 2 * stride)
        new = np.array([samples(s) for s in t[nodes]])
        f = f.astype(np.result_type(f, new), copy=False)     # complex if A is
        f[nodes] = new
        grid = f[::stride]
        c = np.linalg.norm(grids[size][1] @ grid.reshape(size, -1), axis=1)
        if (grid == grid[0]).all() or c[size // 2:].max() <= _CHOP * max(scale, c.max()):
            return grid, c, True
    return grid, c, False


def _panel(samples: callable, a: float, b: float, fit, scale: float,
           n_max: int, depth: int, forks: int):
    """Levels at b of the transport from a, given A's fit on [a, b], with
    this panel's share of r_hat and of the certificate's estimate term
    before the e^r_hat factor, as (levels, r_hat, estimate).

    An unresolved panel is bisected unless it is _MAX_DEPTH bisections
    deep or _MAX_FORKS of its ancestors had both halves unresolved: a
    kink or a jump bisects one half at each depth, noise both.  The
    levels run as real (N, 2d, d) columns [Re T; Im T] under the real
    block [[Re A, -Im A], [Im A, Re A]] of a complex A, and as A itself
    for a real A: each level is one real q @ X and one real stacked
    product, and the n_max + 1 end values turn complex once."""
    f, c, resolved = fit
    if not resolved and depth < _MAX_DEPTH and forks < _MAX_FORKS:
        half = a + (b - a) / 2
        fits = _fit(samples, a, half, scale), _fit(samples, half, b, scale)
        forks += not (fits[0][2] or fits[1][2])
        left = _panel(samples, a, half, fits[0], scale, n_max, depth + 1, forks)
        right = _panel(samples, half, b, fits[1], scale, n_max, depth + 1, forks)
        return (_chen_product(right[0], left[0]),
                left[1] + right[1], left[2] + right[2])
    length, (size, d, _) = b - a, f.shape
    if (f == f[0]).all():
        # closed-form arc levels: spectral weights sum to 1 only to
        # within an ulp, and a constant panel needs no interpolation
        return (_arc_levels(length * f[0], n_max),
                length * float(np.linalg.norm(f[0], 2)),
                (n_max + size) * d * _U)
    _, _, integ, trap, second = _grids()[size]
    flat = f.reshape(size, d * d)
    tail = 2 * float(c[size // 2:].sum())            # estimate of |A - A_N|
    # r_hat: the norm of A_N's linear interpolant on each trapezoid cell
    # is convex, so its chord bounds it; the rest of A_N is at most
    # h^2/8 max|A_N''|, and A differs from A_N by about the tail
    curve = (2 / length) ** 2 * float(np.linalg.norm(second @ flat, axis=1).sum())
    h = length / _TRAP
    norms = np.linalg.svd((trap @ flat).reshape(-1, d, d), compute_uv=False)[:, 0]
    r_hat = (h * float(norms.sum() - (norms[0] + norms[-1]) / 2)
             + length * h * h / 12 * curve + length * tail)
    cplx = np.iscomplexobj(f)
    block = np.concatenate([np.concatenate([f.real, -f.imag], 2),
                            np.concatenate([f.imag, f.real], 2)], 1) if cplx else f
    ends = np.empty((n_max + 1, block.shape[1], d))
    ends[0] = np.eye(*ends.shape[1:])
    q = length * integ
    integrand = block[..., :d]                       # A T_{k-1} at the nodes
    for k in range(1, n_max + 1):
        cur = (q @ integrand.reshape(size, -1)).reshape(integrand.shape)
        ends[k] = cur[-1]
        if k < n_max:
            integrand = block @ cur
    levels = ends[:, :d] + 1j * ends[:, d:] if cplx else ends.astype(complex)
    return levels, r_hat, length * tail + (n_max + size) * d * _U


def picard_transport(path: MatrixPath, n_max: int = 12,
                     n_steps: int | None = None) -> TransportResult:
    """Truncated time-ordered exponential of A along the path.

    Adaptive Chebyshev panels (see the module docstring).  The result's
    remainder_bound is tail(r_hat, n_max) plus, summed over panels,
    (length * coefficient-tail estimate + (n_max + N) d u) e^r_hat with
    N the panel's grid size, d the matrix size and u = 2^-53; the last
    two terms are estimates.  The path is sampled once per distinct t.
    n_steps is ignored, since the panels choose their own nodes; it is
    accepted because perfbench/probe.py passes it (ROADMAP item 4).
    """
    samples = cache(path.fn)
    fit = _fit(samples, 0.0, 1.0, 0.0)
    levels, r_hat, estimate = _panel(samples, 0.0, 1.0, fit, float(fit[1].max()),
                                     n_max, 0, 0)
    with np.errstate(over="ignore"):  # past r = 709.78 the bound is inf
        bound = series_tail_bound(r_hat, n_max) + estimate * np.exp(r_hat)
    return TransportResult(list(levels), levels.sum(axis=0), r_hat,
                           float(bound), samples.cache_info().currsize)


def _tree_product(steps: np.ndarray) -> np.ndarray:
    """steps[-1] @ ... @ steps[0] by pairwise tree reduction."""
    while len(steps) > 1:
        pairs = steps[1::2] @ steps[:-1:2]
        steps = np.concatenate([pairs, steps[-1:]]) if len(steps) % 2 else pairs
    return steps[0]


def _gauss_tableau():
    """Butcher tableau (c, a, b) of the 4-stage Gauss-Legendre method on
    [0, 1]: the Gauss nodes c = (1 -+ x) / 2 in increasing order, their
    weights b, and a_ij the integral over [0, c_i] of node c_j's Lagrange
    polynomial, P V^-T with P_ik = c_i^(k+1) / (k+1) and V_kj = c_j^k."""
    x = np.sqrt(3 / 7 + np.array([1, -1, -1, 1]) * 2 / 7 * np.sqrt(6 / 5))
    c = (1 + np.array([-1, -1, 1, 1]) * x) / 2
    b = (18 + np.array([-1, 1, 1, -1]) * np.sqrt(30)) / 72
    m = np.arange(1, 5)[:, None]
    return c, np.linalg.solve(c ** (m - 1), c ** m / m).T, b


_GAUSS_C, _GAUSS_A, _GAUSS_B = _gauss_tableau()


def rk4_transport(path: MatrixPath, n_steps: int = 32) -> np.ndarray:
    """4-stage Gauss-Legendre Runge-Kutta, of order 8, for dR/dt = A(t) R
    on [0, 1] (Butcher, Math. Comp. 18, 1964; Hairer and Wanner, Solving
    ODEs II, IV.5).

    The path is sampled once at each of the 4 n_steps Gauss nodes
    t = (k + c_i) / n_steps, interior to their steps.  The ODE is linear,
    so the stages of step k solve one 4d x 4d system,
    K_i - h sum_j a_ij A_i K_j = A_i, and the step is the matrix
    I + h sum_i b_i K_i.  All systems are solved in one batch and the
    steps multiplied by pairwise tree reduction.  n_steps is any integer
    of at least 1; the default 32 takes 128 samples and has t = 1/2 as a
    step boundary.  The samples are taken at Python floats, which numpy
    path functions take faster than numpy scalars.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, not {n_steps}")
    d, h = path.dim, 1.0 / n_steps
    nodes = (np.arange(n_steps)[:, None] + _GAUSS_C) / n_steps
    a = np.array([path.fn(t) for t in nodes.ravel().tolist()], dtype=complex)
    # step k's system has the blocks delta_ij I - h a_ij A_i
    blocks = _GAUSS_A[:, None, :, None] * a.reshape(n_steps, 4, d, 1, d)
    system = np.multiply(blocks, -h, out=blocks).reshape(n_steps, 4 * d, 4 * d)
    system.reshape(n_steps, -1)[:, ::4 * d + 1] += 1
    k = np.linalg.solve(system, a.reshape(n_steps, 4 * d, d))
    steps = _GAUSS_B @ k.reshape(n_steps, 4, d * d)
    return _tree_product(np.eye(d) + h * steps.reshape(n_steps, d, d))


@dataclass
class PerturbedHolonomy:
    hol: np.ndarray                # unperturbed holonomy
    value: np.ndarray              # perturbed holonomy hol @ R(1)
    series: list[np.ndarray]       # exposed terms V_k = hol T_k hol^-1
    r_hat: float
    remainder_bound: float         # tail bound + rounding estimate of |value - exact|_2


def _arc_perturbations(pert: dict, word, d: int) -> np.ndarray:
    """B_k on the arc of each letter x_k, -B_k on that of x_k^-1, stacked."""
    b = np.array([pert[abs(x)] for x in word], dtype=complex).reshape(-1, d, d)
    return np.where(np.array(word).reshape(-1, 1, 1) < 0, -b, b)


def perturbed_holonomy(rep: S.Representation, pert: dict, word,
                       n_max: int = 12) -> PerturbedHolonomy:
    """Perturbed holonomy of a word by Chen concatenation of its arcs.

    pert maps generator index k to a constant algebra element B_k; the
    arc of an inverse letter carries -B_k.  Arc j has the constant
    start-frame coefficient C_j = -psi_j^-1 B_j psi_j over the whole arc
    (psi_j the prefix holonomy), so its levels C_j^k / k! are the blocks
    of its jet exp(N x C_j), N the nilpotent shift, and the levels of the
    word are the product of the arcs' jets, later arcs on the left, with
    those of the empty path, (I, 0, .., 0).

    remainder_bound = |hol|_2 tail(r_hat, n_max)
                      + (m + n_max) d u e^r_hat prod_j |rho(x_j)|_2,
    with r_hat = sum_j |C_j|_2, m letters, d the matrix size and
    u = 2^-53: a bound on the series truncation plus a Higham gamma_n
    estimate, not a bound, of the rounding in the m + n_max chained
    products of d x d matrices.
    """
    d = rep.spec.matrix_dim
    psis, psi_invs = S.prefix_holonomies(rep, word)
    psi, psi_inv = psis[-1], psi_invs[-1]
    c = psi_invs[:-1] @ -_arc_perturbations(pert, word, d) @ psis[:-1]
    norms = np.linalg.norm(np.concatenate([c, rep.letters[list(word)], [psi]]), 2,
                           axis=(1, 2)).tolist()
    r_hat = 0.0
    for c_norm in norms[:len(word)]:  # in order: sum() compensates from 3.12
        r_hat += c_norm
    letters_norm = math.prod(norms[len(word):-1])
    empty = np.zeros((n_max + 1, d, d), dtype=complex)
    empty[0] = np.eye(d)
    levels = _chen_product(_arc_levels(c, n_max), empty)
    with np.errstate(over="ignore"):  # past r = 709.78 the bound is inf
        rounding = (len(word) + n_max) * d * _U * np.exp(r_hat) * letters_norm
    bound = float(norms[-1] * series_tail_bound(r_hat, n_max) + rounding)
    series = list(psi @ levels @ psi_inv)
    return PerturbedHolonomy(psi, psi @ levels.sum(axis=0), series, r_hat, bound)


def rk4_perturbed_holonomy(rep: S.Representation, pert: dict,
                           word) -> np.ndarray:
    """Current-frame route: prod_j rho(x_j) exp(-B_j), later letters on the
    left, with B_j arc j's perturbation, so exp(-B_j) is its exact transport
    (Chen 1957); all arcs in one stacked G.expm call.  The name stays, as
    perfbench calls it and the holonomy CLI reports rk4_delta from it."""
    W.check_word(word, rep.genus)
    p = np.eye(rep.spec.matrix_dim, dtype=complex)
    for x, arc in zip(word, G.expm(-_arc_perturbations(pert, word, len(p)))):
        p = rep.letters[x] @ arc @ p
    return p
