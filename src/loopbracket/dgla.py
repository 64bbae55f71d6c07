"""Finite-dimensional cyclic differential graded Lie algebras.

The grading is two-part: even and odd coefficient vectors are plain
arrays, and the structure lives in dense tensors.  b00, b01, b11 hold
the bracket on (even,even), (even,odd), (odd,odd) inputs; the missing
(odd,even) case is dispatched through graded antisymmetry.  d_eo and
d_oe are the two parity-exchanging blocks of the differential, and
w00/w11 the two diagonal blocks of the pairing (the mixed block is
zero by fiat, so that axiom holds structurally).

axioms_residual sweeps every axiom over the whole basis at once via
tensor contractions and reports one max-abs residual per axiom, plus
d^2 = 0 and the two smallest pairing singular values; nondegeneracy is
a lower bound on those, not a residual.

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


def bracket(dgla: CyclicDgla, px: int, x: np.ndarray, py: int,
            y: np.ndarray) -> np.ndarray:
    """[x, y] for homogeneous x, y of parities px, py."""
    if px == 0 and py == 0:
        return np.einsum("kij,i,j->k", dgla.b00, x, y)
    if px == 0 and py == 1:
        return np.einsum("cib,i,b->c", dgla.b01, x, y)
    if px == 1 and py == 0:
        return -np.einsum("cib,i,b->c", dgla.b01, y, x)
    return np.einsum("kab,a,b->k", dgla.b11, x, y)


def differential(dgla: CyclicDgla, parity: int, x: np.ndarray) -> np.ndarray:
    return (dgla.d_eo if parity == 0 else dgla.d_oe) @ x


def omega(dgla: CyclicDgla, parity: int, x: np.ndarray, y: np.ndarray) -> float:
    """Pairing of two vectors of the same parity; mixed pairs give 0."""
    w = dgla.w00 if parity == 0 else dgla.w11
    return float(x @ w @ y)


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


def mc_solve(dgla: CyclicDgla, rng: np.random.Generator,
             seed_scale: float = 1e-2, tol: float = 1e-12,
             max_iter: int = 50) -> McResult:
    """Damped Newton for dx + 1/2 [x,x] = 0 from one random small seed.

    One seed per call; a non-converged run is reported as such, never
    retried here.
    """
    d1 = dgla.dims[1]
    x = seed_scale * rng.normal(size=d1)
    res = mc_residual(dgla, x)
    it = 0
    for it in range(1, max_iter + 1):
        if np.linalg.norm(res) <= tol:
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
    ok = bool(np.linalg.norm(res) <= tol)
    return McResult(x, float(np.linalg.norm(res)), ok, it)


def _maxabs(t) -> float:
    return float(np.max(np.abs(t))) if t.size else 0.0


def axioms_residual(dgla: CyclicDgla) -> dict:
    """Max residual per axiom over the full basis, via contractions."""
    b00, b01, b11 = dgla.b00, dgla.b01, dgla.b11
    deo, doe, w00, w11 = dgla.d_eo, dgla.d_oe, dgla.w00, dgla.w11

    anti = max(_maxabs(b00 + b00.transpose(0, 2, 1)),
               _maxabs(b11 - b11.transpose(0, 2, 1)))

    j_eee = (np.einsum("wiu,ujk->wijk", b00, b00)
             + np.einsum("wju,uki->wijk", b00, b00)
             + np.einsum("wku,uij->wijk", b00, b00))
    j_eeo = (np.einsum("wiu,ujc->wijc", b01, b01)
             - np.einsum("wju,uic->wijc", b01, b01)
             - np.einsum("wuc,uij->wijc", b01, b00))
    j_eoo = (np.einsum("wiu,uab->wiab", b00, b11)
             - np.einsum("wau,uib->wiab", b11, b01)
             - np.einsum("wbu,uia->wiab", b11, b01))
    j_ooo = (np.einsum("wua,ubc->wabc", b01, b11)
             + np.einsum("wub,uca->wabc", b01, b11)
             + np.einsum("wuc,uab->wabc", b01, b11))
    jacobi = max(map(_maxabs, (j_eee, j_eeo, j_eoo, j_ooo)))

    l_ee = (np.einsum("cu,uij->cij", deo, b00)
            + np.einsum("cju,ui->cij", b01, deo)
            - np.einsum("ciu,uj->cij", b01, deo))
    l_eo = (np.einsum("kc,cib->kib", doe, b01)
            - np.einsum("kub,ui->kib", b11, deo)
            - np.einsum("kiu,ub->kib", b00, doe))
    l_oo = (np.einsum("ck,kab->cab", deo, b11)
            - np.einsum("cub,ua->cab", b01, doe)
            - np.einsum("cua,ub->cab", b01, doe))
    leibniz = max(map(_maxabs, (l_ee, l_eo, l_oo)))

    c_eee = (np.einsum("uij,uk->ijk", b00, w00)
             - np.einsum("iu,ujk->ijk", w00, b00))
    c_eoo = (np.einsum("uia,ub->iab", b01, w11)
             - np.einsum("iu,uab->iab", w00, b11))
    c_oeo = (-np.einsum("uia,ub->aib", b01, w11)
             - np.einsum("au,uib->aib", w11, b01))
    c_ooe = (np.einsum("uab,ui->abi", b11, w00)
             + np.einsum("au,uib->abi", w11, b01))
    cyclicity = max(map(_maxabs, (c_eee, c_eoo, c_oeo, c_ooe)))

    p_eo = np.einsum("ai,ab->ib", deo, w11) + w00 @ doe
    p_oe = np.einsum("ua,uj->aj", doe, w00) - w11 @ deo
    d_pairing = max(_maxabs(p_eo), _maxabs(p_oe))

    return {
        "parity_exchange": 0.0,   # structural: d blocks swap parts
        "leibniz": leibniz,
        "cyclicity": cyclicity,
        "d_pairing": d_pairing,
        "graded_symmetry": max(_maxabs(w00 - w00.T), _maxabs(w11 + w11.T)),
        "sigma_min_even": float(np.linalg.svd(w00, compute_uv=False)[-1]),
        "sigma_min_odd": float(np.linalg.svd(w11, compute_uv=False)[-1]),
        "mixed_pairing": 0.0,     # structural: no mixed block exists
        "bracket_antisymmetry": anti,
        "jacobi": jacobi,
        "d_squared": max(_maxabs(doe @ deo), _maxabs(deo @ doe)),
    }


def axioms_pass(report: dict, tol: float = 1e-12,
                sigma_floor: float = 1e-8) -> bool:
    sigmas = {"sigma_min_even", "sigma_min_odd"}
    if any(report[k] > tol for k in report if k not in sigmas):
        return False
    return all(report[k] >= sigma_floor for k in sigmas)


def structure_constants(spec: G.GroupSpec) -> np.ndarray:
    """c[k,i,j] = sign_k <[u_i, u_j], u_k> of the algebra in its
    pairing-orthonormal basis u, so that [u_i, u_j] = sum_k c[k,i,j] u_k."""
    basis, signs = G.pairing_orthonormal_basis(spec)
    u = np.array(basis)
    t = np.einsum("iab,jbc,kca->kij", u, u, u, optimize=True).real
    return np.asarray(signs)[:, None, None] * (t - t.transpose(0, 2, 1))


def surface_toy_instance(genus: int, spec: G.GroupSpec) -> CyclicDgla:
    """Cohomology of a genus-g surface tensored with a matrix algebra.

    Even part: unit class and top class, each with one algebra factor;
    odd part: the 2g degree-one classes.  Cup product pairs the i-th
    dual classes into the top class with opposite signs, the pairing
    integrates the top component against the algebra pairing, and the
    differential is zero.  MC for x = sum(alpha_i ox x_i + beta_i ox y_i)
    reduces to sum_i [x_i, y_i] = 0.
    """
    if genus < 1:
        raise DglaError("genus must be >= 1")
    c = structure_constants(spec)
    _, signs = G.pairing_orthonormal_basis(spec)
    m = c.shape[0]
    g = genus
    d0, d1 = 2 * m, 2 * g * m

    b00 = np.zeros((d0, d0, d0))
    b00[:m, :m, :m] = c                      # [e x, e y] = e [x,y]
    b00[m:, :m, m:] = c                      # [e x, f y] = f [x,y]
    b00[m:, m:, :m] = c                      # [f x, e y] = f [x,y]

    b01 = np.zeros((d1, d0, d1))
    for i in range(2 * g):                   # e acts on every odd block
        sl = slice(i * m, (i + 1) * m)
        b01[sl, :m, sl] = c

    b11 = np.zeros((d0, d1, d1))
    for i in range(g):                       # alpha_i beta_i -> top class
        a = slice(i * m, (i + 1) * m)
        b = slice((g + i) * m, (g + i + 1) * m)
        b11[m:, a, b] = c
        b11[m:, b, a] = -c

    sig = np.diag(signs)
    w00 = np.zeros((d0, d0))
    w00[:m, m:] = sig
    w00[m:, :m] = sig
    w11 = np.zeros((d1, d1))
    for i in range(g):
        a = slice(i * m, (i + 1) * m)
        b = slice((g + i) * m, (g + i + 1) * m)
        w11[a, b] = sig
        w11[b, a] = -sig

    return CyclicDgla(b00, b01, b11, np.zeros((d1, d0)), np.zeros((d0, d1)),
                      w00, w11)


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
