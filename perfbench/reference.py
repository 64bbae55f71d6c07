"""Computations made apart from loopbracket, used to check its outputs.

Nothing here calls into the package: words, traces, holonomies, group
equations, the torus closed form, the transport ODE and the closed-form
perturbed holonomy are recomputed from the inputs with numpy and scipy.
scipy is imported only where it is used, so that the memory probe, which
imports this module but computes no reference, loads no more of it than
the package itself does.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

NONFINITE_STRINGS = {"inf", "-inf", "nan"}


# --- words ---------------------------------------------------------------

def cyclic_reduce(word) -> list[int]:
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    lo, hi = 0, len(out)
    while hi - lo >= 2 and out[lo] == -out[hi - 1]:
        lo, hi = lo + 1, hi - 1
    return out[lo:hi]


def random_reduced_word(rng: np.random.Generator, genus: int, length: int) -> list[int]:
    """Uniform cyclically reduced word of exactly `length` letters."""
    letters = [k for k in range(-2 * genus, 2 * genus + 1) if k != 0]
    while True:
        word: list[int] = []
        while len(word) < length:
            x = letters[int(rng.integers(len(letters)))]
            if not word or word[-1] != -x:
                word.append(x)
        if length < 2 or word[0] != -word[-1]:
            return word


_TOKEN = re.compile(r"([abAB])([1-9][0-9]*)$")


def parse_word(text: str) -> list[int]:
    out = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad token {tok!r}")
        k = 2 * int(m.group(2)) - (1 if m.group(1) in "aA" else 0)
        out.append(k if m.group(1).islower() else -k)
    return out


def format_word(word) -> str:
    toks = []
    for x in word:
        tok = ("a" if abs(x) % 2 else "b") + str((abs(x) + 1) // 2)
        toks.append(tok if x > 0 else tok.upper())
    return " ".join(toks)


def torus_word(p: int, q: int) -> list[int]:
    return [1 if p > 0 else -1] * abs(p) + [2 if q > 0 else -2] * abs(q)


def torus_classes(terms) -> dict:
    """Sum (word, coef) terms by class on the torus.  pi_1 of the torus is
    Z^2, so a free homotopy class is its pair of exponent sums."""
    out: dict = {}
    for word, coef in terms:
        key = (sum(1 if x == 1 else -1 for x in word if abs(x) == 1),
               sum(1 if x == 2 else -1 for x in word if abs(x) == 2))
        out[key] = out.get(key, 0) + Fraction(coef)
    return {k: c for k, c in out.items() if c}


def torus_bracket(p: int, q: int, r: int, s: int) -> dict:
    """[(p, q), (r, s)] = (p s - q r) (p + r, q + s), by torus_classes."""
    det = p * s - q * r
    return {(p + r, q + s): Fraction(det)} if det else {}


# --- holonomy and groups -------------------------------------------------

def holonomy(images, word, inverses=None) -> np.ndarray:
    """rho(x_m) .. rho(x_1): the later letter acts later."""
    if inverses is None:
        inverses = [np.linalg.inv(m) for m in images]
    h = np.eye(images[0].shape[0], dtype=complex)
    for x in word:
        h = (images[x - 1] if x > 0 else inverses[-x - 1]) @ h
    return h


def relator(genus: int) -> list[int]:
    return [x for k in range(1, genus + 1)
            for x in (2 * k - 1, 2 * k, -(2 * k - 1), -2 * k)]


def evaluate_terms(images, terms) -> tuple[float, float]:
    """(sum, sum of magnitudes) of coef * Re tr hol(word) over the terms;
    the second is the scale roundoff in the sum is relative to."""
    inverses = [np.linalg.inv(m) for m in images]
    parts = [float(c) * float(np.trace(holonomy(images, w, inverses)).real) for w, c in terms]
    return sum(parts), sum(map(abs, parts))


def _sig(p: int, q: int) -> np.ndarray:
    return np.diag(np.r_[np.ones(p), -np.ones(q)]).astype(complex)


def membership_residual(kind: str, p: int, q: int, g: np.ndarray) -> float:
    """Distance of g from its group equations, relative to |g|^2."""
    n = g.shape[0]
    scale = 1.0 + np.linalg.norm(g) ** 2
    real = float(np.linalg.norm(g.imag)) if kind in ("GL_R", "O_pq", "Sp_R") else 0.0
    if kind in ("GL_R", "GL_C"):
        eq = 0.0 if abs(np.linalg.det(g)) > 0 else 1.0
    elif kind == "O_pq":
        j = _sig(p, q)
        eq = np.linalg.norm(g.T @ j @ g - j)
    elif kind == "O_C":
        eq = np.linalg.norm(g.T @ g - np.eye(n))
    elif kind == "U_pq":
        j = _sig(p, q)
        eq = np.linalg.norm(g.conj().T @ j @ g - j)
    elif kind == "Sp_R":
        m = n // 2
        om = np.block([[np.zeros((m, m)), np.eye(m)], [-np.eye(m), np.zeros((m, m))]])
        eq = np.linalg.norm(g.T @ om @ g - om)
    elif kind == "Sp_pq":
        d = _sig(p, q)
        h = np.block([[d, 0 * d], [0 * d, d]])
        m = n // 2
        jq = np.block([[np.zeros((m, m)), -np.eye(m)], [np.eye(m), np.zeros((m, m))]])
        eq = np.linalg.norm(g.conj().T @ h @ g - h) + np.linalg.norm(g @ jq - jq @ g.conj())
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return float(real + eq) / scale


def rep_residuals(obj: dict) -> tuple[float, float]:
    """(relative relator residual, worst relative membership residual) of
    a representation in the JSON schema."""
    grp = obj["group"]
    images = images_from_json(obj)
    genus = len(images) // 2
    rel = np.linalg.norm(holonomy(images, relator(genus)) - np.eye(images[0].shape[0]))
    scale = math.prod(1.0 + float(np.linalg.norm(m)) for m in images) ** 2
    member = max(membership_residual(grp["kind"], grp.get("p", 0), grp.get("q", 0), m)
                 for m in images)
    return float(rel) / scale, member


def matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(re_, im) for re_, im in row] for row in data])


def matrix_to_json(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def images_from_json(obj: dict) -> list[np.ndarray]:
    ims = obj["images"]
    return [matrix_from_json(ims[format_word([k])]) for k in range(1, len(ims) + 1)]


def nonfinite(obj) -> bool:
    """True when a parsed JSON value holds a non-finite number, either as
    a float or as the "inf"/"nan" strings the CLI prints for one."""
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, str):
        return obj.strip().lower() in NONFINITE_STRINGS
    if isinstance(obj, dict):
        return any(nonfinite(v) for v in obj.values())
    if isinstance(obj, list):
        return any(nonfinite(v) for v in obj)
    return False


# --- transport -----------------------------------------------------------

def transport_reference(fn, dim: int) -> np.ndarray:
    """R(1) for R' = A(t) R, R(0) = I, by DOP853 at tight tolerance."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        return (fn(t) @ y.reshape(dim, dim)).ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), np.eye(dim, dtype=complex).ravel(),
                    method="DOP853", rtol=1e-13, atol=1e-15)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1].reshape(dim, dim)


def perturbed_reference(images, pert: dict, word) -> np.ndarray:
    """Closed form prod_j rho(x_j) exp(-B_j), the last letter leftmost;
    an inverse letter carries -B on its arc."""
    from scipy.linalg import expm

    p = np.eye(images[0].shape[0], dtype=complex)
    for x in word:
        b = pert[abs(x)] if x > 0 else -pert[abs(x)]
        m = images[abs(x) - 1]
        p = (m if x > 0 else np.linalg.inv(m)) @ expm(-b) @ p
    return p


def word_r_hat(images, pert: dict, word) -> float:
    """int |Atilde|_2 for the word's perturbation path: arc j contributes
    |psi_j^-1 B_j psi_j|_2, psi_j the prefix holonomy."""
    psi = np.eye(images[0].shape[0], dtype=complex)
    total = 0.0
    for x in word:
        b = pert[abs(x)] if x > 0 else -pert[abs(x)]
        total += float(np.linalg.norm(np.linalg.inv(psi) @ b @ psi, 2))
        m = images[abs(x) - 1]
        psi = (m if x > 0 else np.linalg.inv(m)) @ psi
    return total


def term_bounds_hold(terms, r_hat: float) -> bool:
    """|T_k|_2 <= r_hat^k / k!, with the slack the package's own suite uses."""
    return all(np.linalg.norm(t, 2) <= r_hat ** k / math.factorial(k) * (1 + 1e-6) + 1e-12
               for k, t in enumerate(terms))
