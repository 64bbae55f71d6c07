"""Finite-dimensional cyclic differential graded Lie algebras.

The grading is mod 2: V = V_0 + V_1, with |x| = p for x in V_p.  Vectors
are plain arrays and the structure is one dense block per parity: the
bracket [V_p, V_q] -> V_{p+q} is b00, b01 or b11 (out, x, y), with
[V_1, V_0] read from b01 by graded antisymmetry; the differential
V_p -> V_{1-p} is d_eo or d_oe; the pairing omega on V_p is w00 or w11
(the mixed block is zero by fiat, so that axiom holds structurally).
_blocks is this parity table, and bracket, omega and axioms_residual
read it alone.  axioms_residual writes each identity once, over the
parity blocks of its basis arguments, with signs from the parities:

    Jacobi      (-1)^{|x||z|} [x,[y,z]] + cyclic = 0     |x| <= |y| <= |z|
    Leibniz     d[x,y] = [dx,y] + (-1)^{|x|} [x,dy]
    cyclicity   omega([x,y], z) = omega(x, [y,z])
    d-pairing   omega(dx, y) + (-1)^{|x|} omega(x, dy) = 0
    symmetry    omega(x, y) = (-1)^{|x||y|} omega(y, x)

plus [x,y] = -(-1)^{|x||y|} [y,x] and d^2 = 0, one max-abs residual
each, and the two smallest pairing singular values (nondegeneracy is a
lower bound on those, not a residual).  The toy instance is
H*(Sigma_g) tensor a matrix Lie algebra g, the formal model of the
deformations of flat connections on a surface (Goldman-Millson 1988).

The Maurer-Cartan locus, gauge fields xi_a(x) = [a,x] - da, and the
moment x |-> omega(dx + 1/2 [x,x], .) are the pieces the verification
suites exercise.  The identity behind the tangency test,

    d(xi_a(x)) + [x, xi_a(x)] = [a, dx + 1/2 [x,x]],

is an exact consequence of the axioms, so it is tested at arbitrary x,
not only on the MC locus.  The sign convention in the moment identity
(+omega(xi_a(x), v) for the derivative along v) is pinned by a small
instance with a nonzero differential; see minimal_differential_instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups as G
from .schema import DglaError


def shapes(d0: int, d1: int) -> dict:
    """The shape of each tensor of a DGLA with even and odd dimensions
    d0, d1, in field order."""
    return {"b00": (d0, d0, d0), "b01": (d1, d0, d1), "b11": (d0, d1, d1),
            "d_eo": (d1, d0), "d_oe": (d0, d1),
            "w00": (d0, d0), "w11": (d1, d1)}


@dataclass(frozen=True, eq=False)
class CyclicDgla:
    b00: np.ndarray   # out, even, even
    b01: np.ndarray   # out, even, odd
    b11: np.ndarray   # out, odd, odd
    d_eo: np.ndarray  # even -> odd
    d_oe: np.ndarray  # odd -> even
    w00: np.ndarray
    w11: np.ndarray

    def __post_init__(self):
        for name, shape in shapes(*self.dims).items():
            got = getattr(self, name).shape
            if got != shape:
                raise DglaError(f"{name} has shape {got}, expected {shape}")

    @property
    def dims(self) -> tuple[int, int]:
        return self.w00.shape[0], self.w11.shape[0]


def _blocks(dgla: CyclicDgla):
    """The parity table (br, d, w): br(p, q) = (sign, tensor) is [V_p, V_q]
    as sign * tensor[out, x, y], parities mod 2; d[p] is the differential
    on V_p and w[p] the pairing on V_p.  Views only: nothing is copied."""
    table = {(0, 0): (1, dgla.b00), (0, 1): (1, dgla.b01),
             (1, 0): (-1, dgla.b01.transpose(0, 2, 1)),  # graded antisymmetry
             (1, 1): (1, dgla.b11)}
    return (lambda p, q: table[p % 2, q % 2],
            (dgla.d_eo, dgla.d_oe), (dgla.w00, dgla.w11))


def bracket(dgla: CyclicDgla, px: int, x: np.ndarray, py: int,
            y: np.ndarray) -> np.ndarray:
    """[x, y] for homogeneous x, y of parities px, py."""
    sign, t = _blocks(dgla)[0](px, py)
    return sign * np.einsum("kij,i,j->k", t, x, y)


def omega(dgla: CyclicDgla, parity: int, x: np.ndarray, y: np.ndarray) -> float:
    """Pairing of two vectors of the same parity; mixed pairs give 0."""
    return float(x @ _blocks(dgla)[2][parity] @ y)


def mc_residual(dgla: CyclicDgla, x: np.ndarray) -> np.ndarray:
    return dgla.d_oe @ x + 0.5 * np.einsum("kab,a,b->k", dgla.b11, x, x)


def gauge_field(dgla: CyclicDgla, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.einsum("cib,i,b->c", dgla.b01, a, x) - dgla.d_eo @ a


def moment(dgla: CyclicDgla, x: np.ndarray, a: np.ndarray) -> float:
    return float(mc_residual(dgla, x) @ dgla.w00 @ a)


def linearized_mc(dgla: CyclicDgla, x: np.ndarray) -> np.ndarray:
    """Matrix of v |-> dv + [x, v] at the odd point x."""
    return dgla.d_oe + np.einsum("kab,a->kb", dgla.b11, x)


@dataclass
class McResult:
    x: np.ndarray
    residual: float
    converged: bool
    iterations: int


_MC_SEED_SCALE = 1e-2    # size of the random starting point
_MC_TOL = 1e-12          # residual norm that counts as converged
_MC_MAX_ITER = 50        # Newton iterations before giving up


def mc_solve(dgla: CyclicDgla, rng: np.random.Generator) -> McResult:
    """Damped Newton for dx + 1/2 [x,x] = 0 from one random small seed.

    One seed per call; a non-converged run is reported as such, never
    retried here.
    """
    d1 = dgla.dims[1]
    x = _MC_SEED_SCALE * rng.normal(size=d1)
    res = mc_residual(dgla, x)
    it = 0
    for it in range(1, _MC_MAX_ITER + 1):
        if np.linalg.norm(res) <= _MC_TOL:
            return McResult(x, float(np.linalg.norm(res)), True, it - 1)
        step = np.linalg.lstsq(linearized_mc(dgla, x), -res, rcond=None)[0]
        lam = 1.0
        for _ in range(12):
            cand = x + lam * step
            cres = mc_residual(dgla, cand)
            if np.linalg.norm(cres) < np.linalg.norm(res):
                x, res = cand, cres
                break
            lam /= 2
        else:
            break
    ok = bool(np.linalg.norm(res) <= _MC_TOL)
    return McResult(x, float(np.linalg.norm(res)), ok, it)


def _largest(blocks) -> float:
    """Max |entry| over the arrays, NaN if any entry is NaN; 0 for none."""
    return float(np.max([np.max(np.abs(t), initial=0.0) for t in blocks],
                        initial=0.0))


def axioms_residual(dgla: CyclicDgla) -> dict:
    """Max residual per identity over the full basis, via contractions."""
    br, d, w = _blocks(dgla)

    def term(spec, first, second, sign=1):  # negated in place, not copied
        (s1, t1), (s2, t2) = first, second
        out = np.einsum(spec, t1, t2, optimize=True)
        return out if sign * s1 * s2 > 0 else np.negative(out, out=out)

    def sliced(block, w):  # the [w] slice of an (out, x, y) bracket block
        return block[0], block[1][w]

    # [x,y] + (-1)^p [y,x] = 0 on V_p x V_p
    anti = _largest(br(p, p)[1] + (-1) ** p * br(p, p)[1].transpose(0, 2, 1)
                    for p in (0, 1))
    # (-1)^{pr} [x,[y,z]] + (-1)^{qp} [y,[z,x]] + (-1)^{rq} [z,[x,y]] = 0,
    # one output basis vector w at a time
    jacobi = _largest(
        term("iu,ujk->ijk", sliced(br(p, q + r), w), br(q, r), (-1) ** (p * r))
        + term("ju,uki->ijk", sliced(br(q, r + p), w), br(r, p), (-1) ** (q * p))
        + term("ku,uij->ijk", sliced(br(r, p + q), w), br(p, q), (-1) ** (r * q))
        for p, q, r in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))
        for w in range(len(br(p, q + r)[1])))
    # d[x,y] - [dx,y] - (-1)^p [x,dy] = 0
    leibniz = _largest(
        term("cu,uij->cij", (1, d[(p + q) % 2]), br(p, q))
        - term("cuj,ui->cij", br(p + 1, q), (1, d[p]))
        - term("ciu,uj->cij", br(p, q + 1), (1, d[q]), (-1) ** p)
        for p, q in ((0, 0), (0, 1), (1, 1)))
    # w([x,y], z) - w(x, [y,z]) = 0, for p + q + r even
    cyclicity = _largest(
        term("uij,uk->ijk", br(p, q), (1, w[r]))
        - term("iu,ujk->ijk", (1, w[p]), br(q, r))
        for p, q, r in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)))
    # w(dx, y) + (-1)^p w(x, dy) = 0
    d_pairing = _largest(np.einsum("ui,uj->ij", d[p], w[1 - p])
                         + (-1) ** p * (w[p] @ d[1 - p]) for p in (0, 1))

    return {
        "parity_exchange": 0.0,   # structural: d blocks swap parts
        "leibniz": leibniz,
        "cyclicity": cyclicity,
        "d_pairing": d_pairing,
        # w(x, y) = (-1)^p w(y, x)
        "graded_symmetry": _largest(w[p] - (-1) ** p * w[p].T for p in (0, 1)),
        "sigma_min_even": float(np.linalg.svd(w[0], compute_uv=False)[-1]),
        "sigma_min_odd": float(np.linalg.svd(w[1], compute_uv=False)[-1]),
        "mixed_pairing": 0.0,     # structural: no mixed block exists
        "bracket_antisymmetry": anti,
        "jacobi": jacobi,
        "d_squared": _largest(d[1 - p] @ d[p] for p in (0, 1)),
    }


def axioms_pass(report: dict, tol: float = 1e-12) -> bool:
    """Every residual at most tol (a NaN one fails) and both pairing
    singular values at least 1e-8."""
    sigmas = {"sigma_min_even", "sigma_min_odd"}
    if any(not report[k] <= tol for k in report if k not in sigmas):
        return False
    return all(report[k] >= 1e-8 for k in sigmas)


def structure_constants(spec: G.GroupSpec) -> np.ndarray:
    """c[k,i,j] = sign_k <[u_i, u_j], u_k> of the algebra in its
    pairing-orthonormal basis u, so that [u_i, u_j] = sum_k c[k,i,j] u_k."""
    u, signs = G.pairing_orthonormal_basis(spec)
    t = np.einsum("iab,jbc,kca->kij", u, u, u, optimize=True).real
    return np.asarray(signs)[:, None, None] * (t - t.transpose(0, 2, 1))


def surface_toy_instance(genus: int, spec: G.GroupSpec) -> CyclicDgla:
    """H*(Sigma_g) tensor the Lie algebra of spec, with d = 0.

    Classes 1, top (even) and alpha_1..alpha_g, beta_1..beta_g (odd); the
    cup product has 1 u c = c and alpha_i u beta_i = top = -beta_i u
    alpha_i, and integration reads the top component.  [a x, b y] =
    (a u b) [x, y] and omega(a x, b y) = int(a u b) <x, y>, so each tensor
    is a Kronecker product, indexed class-major.  MC for x =
    sum(alpha_i x_i + beta_i y_i) reduces to sum_i [x_i, y_i] = 0.
    """
    if genus < 1:
        raise DglaError("genus must be >= 1")
    # (d0 + d1)^3 bounds each 3-index tensor of the toy and of its battery
    if (2 * (genus + 1) * G.algebra_dim(spec)) ** 3 > G.MAX_ENTRIES:
        raise DglaError(f"the genus-{genus} toy is too large: its tensors "
                        f"would pass {G.MAX_ENTRIES} entries")
    c = structure_constants(spec)
    sig = np.diag(G.pairing_orthonormal_basis(spec)[1])
    m, n = c.shape[0], 2 * genus
    cup00 = np.zeros((2, 2, 2))                  # (out, even, even)
    cup00[0, 0, 0] = cup00[1, 0, 1] = cup00[1, 1, 0] = 1
    cup01 = np.zeros((n, 2, n))                  # (out, even, odd)
    cup01[:, 0, :] = np.eye(n)
    cup11 = np.zeros((2, n, n))                  # (out, odd, odd)
    cup11[1] = np.kron([[0, 1], [-1, 0]], np.eye(genus))
    return CyclicDgla(np.kron(cup00, c), np.kron(cup01, c), np.kron(cup11, c),
                      np.zeros((n * m, 2 * m)), np.zeros((2 * m, n * m)),
                      np.kron(cup00[1], sig), np.kron(cup11[1], sig))


def minimal_differential_instance() -> CyclicDgla:
    """Abelian 2+2 instance with a nonzero differential.

    Small enough to check by hand; this is the instance that pins the
    sign in the moment identity: for x=(1,2), a=(2,1) the moment is -6,
    and its derivative along v=(3,-1) is 3 = omega(xi_a(x), v).
    """
    d_eo = np.array([[1.0, 1.0], [0.0, 0.0]])
    d_oe = np.array([[0.0, -1.0], [0.0, 1.0]])
    w00 = np.diag([1.0, -1.0])
    w11 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return CyclicDgla(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)),
                      np.zeros((2, 2, 2)), d_eo, d_oe, w00, w11)
