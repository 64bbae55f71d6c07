"""Matrix groups and the trace-form calculus used everywhere else.

Seven classical kinds over R and C share one interface: a GroupSpec names
the kind and signature, and this module hands out real bases of the Lie
algebra, random samples, membership residuals, and the variation F of the
invariant function f(g) = Re tr(g).

Bases.  Every kind has the closed-form basis x = F s: s runs over one of
four unit-matrix families (all, antisymmetric, symmetric, Hermitian), times
each of the kind's multipliers (1, i or both), and F is the kind's form
where it is not the identity; for sp(p, q), x fills a block of a 2n x 2n
matrix (see algebra_basis).

Conventions.  The pairing is <x, y> = Re tr(xy): R-bilinear, symmetric
and, on each algebra below, nondegenerate (pairing_orthonormal_basis).
The decorated variation Fhat(g; x_1..x_k) is the pairing-dual of

    <Fhat(g; x_1..x_k), y> = fhat(g; x_1..x_k, y) = Re tr(g x_1 .. x_k y)

over algebra elements y: the pairing-orthogonal projection of
g x_1 .. x_k onto the algebra, and at k = 0 the variation F(g).  The GL
kinds project by the identity.  A kind cut out by a real orthogonal form
F has the involution sigma(x) = F^T adj(x) F: a pairing isometry whose -1
eigenspace is the algebra (for Sp_pq, among the x with x J = J conj x),
so the projection is (x - sigma x)/2.  On the group sigma(g) = g^-1, so
F(g) = (g - g^-1)/2.

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


@cache
def form_matrices(spec: GroupSpec):
    """The group's defining equations besides reality, as (F, conj, J),
    with read-only arrays.

    adj(g) F g = F, where adj is the transpose, or the conjugate
    transpose when conj; F is None for the GL kinds.  O_pq/U_pq:
    F = diag(I_p, -I_q).  O_C: the identity.  Sp_R: the standard
    symplectic form.  Sp_pq: the Hermitian form F = diag(D, D), and
    g J = J conj(g) for the quaternionic structure J = [[0, -I], [I, 0]];
    J is None for the other kinds.  Each F is real and orthogonal.
    """
    n, f, j = spec.n, None, None
    if spec.kind == "O_C":
        f = np.eye(n, dtype=complex)
    elif spec.kind == "Sp_R":
        z, i = np.zeros((n // 2, n // 2)), np.eye(n // 2)
        f = np.block([[z, i], [-i, z]]).astype(complex)
    elif spec.kind not in GL_KINDS:
        f = np.diag(np.r_[np.ones(spec.p), -np.ones(spec.q)]).astype(complex)
    if spec.kind == "Sp_pq":
        z, i = np.zeros((n, n)), np.eye(n)
        f = np.block([[f, np.zeros_like(f)], [np.zeros_like(f), f]])
        j = np.block([[z, -i], [i, z]]).astype(complex)
    for a in (f, j):
        if a is not None:
            a.flags.writeable = False  # cached and shared
    return f, spec.kind in ("U_pq", "Sp_pq"), j


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


def _rule_basis(n: int, f, family: str, mults, under_form: bool) -> list:
    return [(m * f) @ s if under_form else m * s
            for s in _family(family, n) for m in mults]


@cache
def algebra_basis(spec: GroupSpec) -> np.ndarray:
    """Real basis of the Lie algebra, as a read-only complex stack (m, d, d).

    x = F s (see the module docstring); F is skipped for O_C, whose form
    is the identity, since multiplying by it flips the sign of some zeros.
    sp(p, q) is the set of [[A, -conj C], [C, conj A]] with A in u(p, q)
    and C = F s for s complex symmetric, so A takes the U_pq rule's
    elements and C takes F s and i F s; each block matrix is divided by
    its Frobenius norm, which keeps the basis orthonormal and exact.
    """
    n, f = spec.n, form_matrices(spec)[0]
    if spec.kind == "Sp_pq":
        f, z = f[:n, :n], np.zeros((n, n))
        basis = [np.block([[a, z], [z, a.conj()]])
                 for a in _rule_basis(n, f, *_BASIS_RULES["U_pq"])]
        basis += [np.block([[z, -c.conj()], [c, z]])
                  for c in _rule_basis(n, f, "sym", (1, 1j), True)]
        basis = [x / _fro(x) for x in basis]
    else:
        basis = _rule_basis(n, f, *_BASIS_RULES[spec.kind])
    out = np.array(basis, dtype=complex)
    out.flags.writeable = False  # cached and shared
    assert len(out) == algebra_dim(spec)
    assert all(algebra_residual(spec, x) == 0.0 for x in out)
    return out


def random_algebra_elements(spec: GroupSpec, rng: np.random.Generator,
                            count: int) -> np.ndarray:
    """count random algebra elements of scale 1, as a (count, d, d) stack.

    One standard-normal draw of count x m coefficients gives the same
    stream as count draws of m.  Each element is its own (1, m) @ (m, d d)
    product with the flat basis, which rounds as tensordot does; one
    (count, m) @ (m, d d) product would be a GEMM, which rounds otherwise.
    """
    basis = algebra_basis(spec)
    m, d = basis.shape[:2]
    x = rng.standard_normal((count, 1, m)) @ basis.reshape(m, -1)
    return x.reshape(count, d, d) / np.sqrt(m)


def random_algebra_element(spec: GroupSpec,
                           rng: np.random.Generator) -> np.ndarray:
    return random_algebra_elements(spec, rng, 1)[0]


# 1-norm limit theta_m of each Pade degree m (Higham, SIAM J. Matrix
# Anal. Appl. 26(4), 2005, Table 2.3) and its numerator coefficients
# b_j = (2m - j)! m! / ((2m)! j! (m - j)!) (eq. 2.2)
_PADE = {m: (theta, [math.factorial(2 * m - j) * math.factorial(m)
                     / (math.factorial(2 * m) * math.factorial(j)
                        * math.factorial(m - j)) for j in range(m + 1)])
         for m, theta in ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
                          (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
                          (13, 5.371920351148152e0))}


@cache
def _pade_terms(m: int, d: int):
    """(b_1 I, b_0 I), the first terms of u's inner sum and of v at degree
    m, and the pairs (b_2k+1, b_2k) that multiply a^2k, k = 1 .. m // 2."""
    b = _PADE[m][1]
    start = np.stack([b[1] * np.eye(d), b[0] * np.eye(d)])
    pairs = np.array([(b[j + 1], b[j]) for j in range(2, m, 2)])
    start.flags.writeable = pairs.flags.writeable = False  # cached and shared
    return start, pairs


def expm(a) -> np.ndarray:
    """Matrix exponential of one matrix or a stack (..., d, d).

    Scaling and squaring with a diagonal Pade approximant of degree 3, 5,
    7, 9 or 13 (Higham 2005); one degree and one scaling serve the whole
    stack, chosen from its largest 1-norm.  The terms b_j a^j of u's inner
    sum and of v fill one stack, and one np.add.reduce adds them in order
    of j, as a sum() from 0 would.  A non-finite input gives NaN instead
    of an exception, and overflow while squaring gives inf/NaN under the
    caller's errstate.
    """
    a = np.asarray(a)
    norm = float(np.abs(a).sum(axis=-2).max(initial=0.0))
    if not math.isfinite(norm):
        return np.full_like(a, np.nan)
    s = 0
    for m, (theta, _) in _PADE.items():
        if norm <= theta:
            break
    else:  # degree 13 after scaling; a finite norm keeps s below 1030
        s = max(0, math.frexp(norm / theta)[1])
        a = a * 2.0 ** -s
    start, pairs = _pade_terms(m, a.shape[-1])
    stack = (1,) * (a.ndim - 2)  # broadcasts over the stack axes of a
    # terms[k] = (b_2k+1 a^2k, b_2k a^2k) for k = 0 .. m // 2
    terms = np.empty((m // 2 + 1, 2) + a.shape, np.result_type(a, 1.0))
    terms[0] = start.reshape((2,) + stack + a.shape[-2:])
    powers = np.empty((m // 2,) + a.shape, terms.dtype)  # a^2 .. a^(m-1)
    np.matmul(a, a, out=powers[0])
    for k in range(1, len(powers)):
        np.matmul(powers[k - 1], powers[0], out=powers[k])
    np.multiply(pairs.reshape((-1, 2, 1, 1) + stack), powers[:, None], out=terms[1:])
    inner, v = np.add.reduce(terms, axis=0)
    u = a @ inner
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def random_elements(spec: GroupSpec, rng: np.random.Generator,
                    count: int) -> list[np.ndarray]:
    """exp of count random algebra elements of scale 1/2, from one draw;
    each stays in the identity component.  One expm call each: over a
    stack the Pade degree would come from the largest norm."""
    return [expm(x) for x in 0.5 * random_algebra_elements(spec, rng, count)]


def random_element(spec: GroupSpec, rng: np.random.Generator) -> np.ndarray:
    return random_elements(spec, rng, 1)[0]


def invariant_f(g: np.ndarray) -> float:
    """f(g) = Re tr(g), the class function all loop evaluations use."""
    return float(np.trace(g).real)


def pairing(x: np.ndarray, y: np.ndarray) -> float:
    """<x, y> = Re tr(xy)."""
    return float(np.trace(np.asarray(x) @ np.asarray(y)).real)


def variation(spec: GroupSpec, g: np.ndarray, xs=()) -> np.ndarray:
    """Decorated variation Fhat(g; x_1..x_k), the projection of
    acc = g x_1 .. x_k onto the algebra (see the module docstring): acc,
    or (acc - sigma(acc)) / 2 on the form kinds.  g may be a stack."""
    acc = np.asarray(g, dtype=complex)
    for x in xs:
        acc = acc @ x
    f, conj, _ = form_matrices(spec)
    if f is None:
        return acc
    adj = np.swapaxes(acc.conj() if conj else acc, -1, -2)
    return (acc - f.T @ adj @ f) / 2.0


@cache
def pairing_orthonormal_basis(spec: GroupSpec):
    """Read-only stack u_k of the algebra with <u_k, u_l> = sign_k delta_kl.

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
    return u, tuple(np.sign(lam).tolist())


def project_to_algebra(spec: GroupSpec, v: np.ndarray) -> np.ndarray:
    """Pairing-orthogonal projection of a gl matrix onto the algebra; of
    g it is F(g) (see the module docstring)."""
    u, signs = pairing_orthonormal_basis(spec)
    coef = np.multiply(signs, np.einsum("ab,kba->k", v, u).real)
    return np.tensordot(coef, u, axes=1)
