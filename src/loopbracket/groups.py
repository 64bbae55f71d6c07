"""Matrix groups and the trace-form calculus used everywhere else.

Seven classical kinds over R and C share one interface: a GroupSpec names
the kind and signature, and this module hands out real bases of the Lie
algebra, random samples, membership residuals, and the variation F of the
invariant function f(g) = Re tr(g).

Bases.  Six kinds have the closed-form basis x = F s: s runs over one of
four unit-matrix families (all, antisymmetric, symmetric, Hermitian), times
each of the kind's multipliers (1, i or both), and F is the kind's form
where it is not the identity.  sp(p, q) is cut out by projection.

Conventions.  The pairing is <x, y> = Re tr(xy): R-bilinear, symmetric,
and nondegenerate (indefinite in general) on each algebra below, since
each is closed under conjugate transpose and <x, x^*> = |x|_F^2 > 0 for
x != 0.  So its Gram matrix on any basis has no zero eigenvalue, and one
eigendecomposition of it gives a pairing-orthonormal basis.  The
decorated variation Fhat(g; x_1..x_k) is the pairing-dual of

    <Fhat(g; x_1..x_k), y> = fhat(g; x_1..x_k, y) = Re tr(g x_1 .. x_k y)

over algebra elements y.  At k = 0 it is the variation F(g), the dual of
d/dt f(g exp(t y)) |_{t=0} = <g, y>: the projection of g onto the
algebra, which is g for the two GL kinds and (g - g^-1)/2 for the kinds
cut out by a form.

All matrices are complex128 internally; the real kinds keep zero imaginary
part and their membership residuals include a reality term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

KINDS = ("GL_R", "GL_C", "O_pq", "O_C", "U_pq", "Sp_R", "Sp_pq")
GL_KINDS = {"GL_R", "GL_C"}  # the two kinds that no form cuts out

_REAL_KINDS = {"GL_R", "O_pq", "Sp_R"}
_SIGNED_KINDS = {"O_pq", "U_pq", "Sp_pq"}
# most entries of one dense array from a group's basis or toy DGLA; checked
# before allocating, as the kernel may grant more and then kill the process
MAX_ENTRIES = 2 ** 24


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class GroupSpec:
    """One of the seven supported matrix groups.

    n is the defining dimension.  It equals the matrix size except for
    Sp_pq, which is realized by 2n x 2n complex matrices with n = p + q.
    """

    kind: str
    n: int
    p: int = 0
    q: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise GroupError(f"unknown group kind {self.kind!r}")
        if self.n < 1:
            raise GroupError("n must be positive")
        if self.kind in _SIGNED_KINDS:
            if self.p < 0 or self.q < 0 or self.p + self.q != self.n:
                raise GroupError(f"{self.kind} needs p >= 0, q >= 0, p + q = n")
        elif (self.p, self.q) != (0, 0):
            raise GroupError(f"{self.kind} takes no signature")
        if self.kind == "Sp_R" and self.n % 2:
            raise GroupError("Sp_R needs even n")
        if self.kind in ("O_pq", "O_C") and self.n < 2:
            raise GroupError(f"{self.kind} needs n >= 2: its algebra is 0")
        if algebra_dim(self) * self.matrix_dim ** 2 > MAX_ENTRIES:
            raise GroupError(f"n = {self.n} is too large: the {self.kind} "
                             f"basis would pass {MAX_ENTRIES} entries")

    @property
    def matrix_dim(self) -> int:
        return 2 * self.n if self.kind == "Sp_pq" else self.n

    @property
    def is_real(self) -> bool:
        return self.kind in _REAL_KINDS


def form_matrices(spec: GroupSpec):
    """The group's defining equations besides reality, as (F, conj, J).

    adj(g) F g = F, where adj is the transpose, or the conjugate
    transpose when conj; F is None for the GL kinds.  O_pq/U_pq:
    F = diag(I_p, -I_q).  O_C: the identity.  Sp_R: the standard
    symplectic form.  Sp_pq: the Hermitian form F = diag(D, D), and
    g J = J conj(g) for the quaternionic structure J = [[0, -I], [I, 0]];
    J is None for the other kinds.
    """
    n = spec.n
    if spec.kind in GL_KINDS:
        return None, False, None
    if spec.kind == "O_C":
        return np.eye(n, dtype=complex), False, None
    if spec.kind == "Sp_R":
        z, i = np.zeros((n // 2, n // 2)), np.eye(n // 2)
        return np.block([[z, i], [-i, z]]).astype(complex), False, None
    d = np.diag(np.r_[np.ones(spec.p), -np.ones(spec.q)]).astype(complex)
    if spec.kind != "Sp_pq":
        return d, spec.kind == "U_pq", None
    z, i = np.zeros((n, n)), np.eye(n)
    return (np.block([[d, np.zeros_like(d)], [np.zeros_like(d), d]]), True,
            np.block([[z, -i], [i, z]]).astype(complex))


def _fro(x) -> float:
    return float(np.linalg.norm(x))


def _residual(spec: GroupSpec, g: np.ndarray, linearized: bool) -> float:
    """Sum of the Frobenius norms of the defining equations at g: reality,
    adj(g) F g - F (or adj(g) F + F g, linearized at 1) and g J - J conj(g)."""
    g = np.asarray(g, dtype=complex)
    f, conj, j = form_matrices(spec)
    r = _fro(g.imag) if spec.is_real else 0.0
    if f is not None:
        adj = g.conj().T if conj else g.T
        r += _fro(adj @ f + f @ g if linearized else adj @ f @ g - f)
    if j is not None:
        r += _fro(g @ j - j @ g.conj())
    return r


def membership_residual(spec: GroupSpec, g: np.ndarray) -> float:
    """Frobenius-norm distance of g from the defining group equations."""
    return _residual(spec, g, linearized=False)


def algebra_residual(spec: GroupSpec, x: np.ndarray) -> float:
    """Frobenius-norm distance of x from the linearized group equations."""
    return _residual(spec, x, linearized=True)


def algebra_dim(spec: GroupSpec) -> int:
    n = spec.n
    return {
        "GL_R": n * n,
        "GL_C": 2 * n * n,
        "O_pq": n * (n - 1) // 2,
        "O_C": n * (n - 1),
        "U_pq": n * n,
        "Sp_R": n * (n + 1) // 2,
        "Sp_pq": n * (2 * n + 1),
    }[spec.kind]


def _family(name: str, n: int) -> list[np.ndarray]:
    """The n x n matrices s of one family, in basis order."""
    e = np.eye(n * n, dtype=complex).reshape(n, n, n, n)   # e[i, j] = E_ij
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if name == "all":
        return list(e.reshape(-1, n, n))
    if name == "anti":
        return [e[a, b] - e[b, a] for a, b in pairs]
    if name == "sym":
        return [e[a, b] + e[b, a] for a in range(n) for b in range(a, n)]
    return [e[a, a] for a in range(n)] + [  # herm
        h for a, b in pairs for h in (e[a, b] + e[b, a], 1j * (e[a, b] - e[b, a]))]


# kind: (family of s, multipliers m, whether x = (m F) s or m s)
_BASIS_RULES = {"GL_R": ("all", (1,), False), "GL_C": ("all", (1, 1j), False),
                "O_pq": ("anti", (1,), True), "O_C": ("anti", (1, 1j), False),
                "U_pq": ("herm", (1j,), True), "Sp_R": ("sym", (1,), True)}


@cache
def algebra_basis(spec: GroupSpec) -> np.ndarray:
    """Real basis of the Lie algebra, as a read-only complex stack (m, d, d).

    x = F s for six kinds (see the module docstring); F is skipped for
    O_C, whose form is the identity, since multiplying by it flips the
    sign of some zeros.  sp(p, q) is cut out by projecting a gl basis
    onto the joint fixed space of its two commuting involutions and
    orthonormalizing the result.
    """
    if spec.kind == "Sp_pq":
        basis = _sp_pq_basis(spec)
    else:
        family, mults, under_form = _BASIS_RULES[spec.kind]
        f = form_matrices(spec)[0]
        basis = [(m * f) @ s if under_form else m * s
                 for s in _family(family, spec.n) for m in mults]
    out = np.array(basis, dtype=complex)
    out.flags.writeable = False  # cached and shared
    assert len(out) == algebra_dim(spec)
    for x in out:
        assert algebra_residual(spec, x) < 1e-12
    return out


def _sp_pq_basis(spec: GroupSpec) -> list[np.ndarray]:
    h, _, j = form_matrices(spec)
    d = spec.matrix_dim

    def project(x):
        t1 = -h @ x.conj().T @ h           # h is its own inverse
        t2 = -j @ x.conj() @ j             # j^-1 = -j
        t12 = -h @ t2.conj().T @ h
        return (x + t1 + t2 + t12) / 4.0

    vs = [project(e) for s in _family("all", d) for e in (s, 1j * s)]
    cols = [np.r_[v.real.ravel(), v.imag.ravel()] for v in vs]
    u, s, _ = np.linalg.svd(np.array(cols).T)
    w = u[:, :int(np.sum(s > 1e-8 * s[0]))].T
    return list((w[:, :d * d] + 1j * w[:, d * d:]).reshape(-1, d, d))


def random_algebra_element(spec: GroupSpec, rng: np.random.Generator,
                           scale: float = 1.0) -> np.ndarray:
    basis = algebra_basis(spec)
    x = np.tensordot(rng.standard_normal(len(basis)), basis, axes=1)
    return scale * x / np.sqrt(len(basis))


# 1-norm limit theta_m of each Pade degree m (Higham, SIAM J. Matrix
# Anal. Appl. 26(4), 2005, Table 2.3) and its numerator coefficients
# b_j = (2m - j)! m! / ((2m)! j! (m - j)!) (eq. 2.2)
_PADE = {m: (theta, [math.factorial(2 * m - j) * math.factorial(m)
                     / (math.factorial(2 * m) * math.factorial(j)
                        * math.factorial(m - j)) for j in range(m + 1)])
         for m, theta in ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
                          (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
                          (13, 5.371920351148152e0))}


def expm(a) -> np.ndarray:
    """Matrix exponential of one matrix or a stack (..., d, d).

    Scaling and squaring with a diagonal Pade approximant of degree 3, 5,
    7, 9 or 13 (Higham 2005); one degree and one scaling serve the whole
    stack, chosen from its largest 1-norm.  A non-finite input gives NaN
    instead of an exception, and overflow while squaring gives inf/NaN
    under the caller's errstate.
    """
    a = np.asarray(a)
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    if not math.isfinite(norm):
        return np.full_like(a, np.nan)
    s = 0
    for m, (theta, b) in _PADE.items():
        if norm <= theta:
            break
    else:  # degree 13 after scaling; a finite norm keeps s below 1030
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


def random_element(spec: GroupSpec, rng: np.random.Generator) -> np.ndarray:
    """exp of a random algebra element of scale 1/2; stays in the
    identity component."""
    return expm(random_algebra_element(spec, rng, 0.5))


def invariant_f(spec: GroupSpec, g: np.ndarray) -> float:
    """f(g) = Re tr(g), the class function all loop evaluations use."""
    return float(np.trace(g).real)


def pairing(x: np.ndarray, y: np.ndarray) -> float:
    """<x, y> = Re tr(xy)."""
    return float(np.trace(np.asarray(x) @ np.asarray(y)).real)


def variation(spec: GroupSpec, g: np.ndarray, xs=()) -> np.ndarray:
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


@cache
def pairing_orthonormal_basis(spec: GroupSpec):
    """Basis u_k of the algebra with <u_k, u_l> = sign_k delta_kl.

    One eigendecomposition V diag(lam) V^T of the Gram matrix
    G_ij = <b_i, b_j> on algebra_basis gives u_k = sum_i b_i V_ik /
    sqrt|lam_k| and sign_k = sign(lam_k).  No lam_k is 0: each algebra is
    closed under conjugate transpose and <x, x^*> = |x|_F^2, so no nonzero
    x pairs to 0 with the whole algebra.
    """
    b = algebra_basis(spec)
    lam, v = np.linalg.eigh(np.einsum("iab,jba->ij", b, b).real)
    u = np.tensordot(v / np.sqrt(np.abs(lam)), b, axes=(0, 0))
    u.flags.writeable = False  # cached and shared
    return tuple(u), tuple(np.sign(lam).tolist())


def project_to_algebra(spec: GroupSpec, v: np.ndarray) -> np.ndarray:
    """Pairing-orthogonal projection of a gl matrix onto the algebra; of
    g it is F(g) (see the module docstring)."""
    basis, signs = pairing_orthonormal_basis(spec)
    u = np.array(basis)
    coef = np.multiply(signs, np.einsum("ab,kba->k", v, u).real)
    return np.tensordot(coef, u, axes=1)
