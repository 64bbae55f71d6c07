"""JSON schemas shared by the CLI and the file-based workflows.

Matrices travel as row-major arrays of [re, im] pairs, group specs as
{"kind", "n", "p", "q"}, representations as {"group": ..., "images":
{"a1": matrix, ...}}, perturbations as {"a1": matrix, ...}, and DGLA
tensors as dense real arrays with explicit dimensions.  Every numeric
entry goes through one reader, `_numbers`: it must be a JSON number
that fits a double and is finite.  Every reader raises SchemaError,
which the CLI maps to exit code 2; representation images must also
have finite inverses.  Curve files, loop sums and SchemaError live in
`schema`, on the standard library alone.
"""

from __future__ import annotations

import re

import numpy as np

from . import dgla as DG
from . import groups as G
from . import surface as S
from . import words as W
from .schema import SchemaError, is_integer


def _numbers(data, name) -> np.ndarray:
    """A dense float array of JSON numbers, each finite in double precision."""
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as err:
        raise SchemaError(f"{name} must be a dense array of numbers "
                          "that fit a double") from err
    # float() reads true as 1.0, "1.5" as 1.5 and null as nan
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in np.array(data, dtype=object).flat):
        raise SchemaError(f"{name} entries must be numbers")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{name} must be finite")
    return arr


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    arr = _numbers(data, "matrix")
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise SchemaError("matrix must be an array of rows of [re, im] pairs")
    # the same bits as complex(re, im), a -0.0 imaginary part included
    return arr.view(complex)[..., 0]


def group_to_json(spec: G.GroupSpec) -> dict:
    return {"kind": spec.kind, "n": spec.n, "p": spec.p, "q": spec.q}


def group_from_json(obj) -> G.GroupSpec:
    if not isinstance(obj, dict) or "kind" not in obj or "n" not in obj:
        raise SchemaError("group spec needs at least 'kind' and 'n'")
    n, p, q = obj["n"], obj.get("p", 0), obj.get("q", 0)
    if not all(map(is_integer, (n, p, q))):
        raise SchemaError("group spec 'n', 'p' and 'q' must be integers")
    try:
        return G.GroupSpec(obj["kind"], n, p, q)
    except (G.GroupError, TypeError, ValueError) as err:
        raise SchemaError(f"bad group spec: {err}") from err


_GROUP_RE = re.compile(r"(GL|O|U|Sp)\(([0-9]+)(?:,([0-9]+|[RC]))?\)")
# GL(n,R), GL(n,C), O(n,C), Sp(n,R): a family and a field
_FIELD_KINDS = {("GL", "R"): "GL_R", ("GL", "C"): "GL_C",
                ("O", "C"): "O_C", ("Sp", "R"): "Sp_R"}
# O(p,q), U(p,q), Sp(p,q), with O(n) and U(n) for q = 0; a bare Sp(n)
# would be ambiguous with Sp(n,R)
_SIGNED_KINDS = {"O": "O_pq", "U": "U_pq", "Sp": "Sp_pq"}


def parse_group_string(text: str) -> G.GroupSpec:
    """Names like GL(2,R), O(1,1), O(2,C), U(2), Sp(2,R), Sp(1,1)."""
    m = _GROUP_RE.fullmatch(text.strip())
    fam, first, second = m.groups() if m else (None, None, None)
    try:
        if (fam, second) in _FIELD_KINDS:
            return G.GroupSpec(_FIELD_KINDS[fam, second], int(first))
        if fam in _SIGNED_KINDS and second not in ("R", "C") and (
                second or fam != "Sp"):
            p, q = int(first), int(second or 0)
            return G.GroupSpec(_SIGNED_KINDS[fam], p + q, p, q)
    except ValueError as err:  # GroupError, or more digits than int() reads
        raise SchemaError(f"bad group {text!r}: {err}") from err
    raise SchemaError(f"cannot parse group name {text!r}")


def rep_to_json(rep: S.Representation) -> dict:
    images = {}
    for k, mat in enumerate(rep.images):
        images[W.format_word([k + 1])] = matrix_to_json(mat)
    return {"group": group_to_json(rep.spec), "images": images}


def rep_from_json(obj) -> S.Representation:
    if not isinstance(obj, dict) or "group" not in obj or "images" not in obj:
        raise SchemaError("representation needs 'group' and 'images'")
    spec = group_from_json(obj["group"])
    images = obj["images"]
    if not isinstance(images, dict) or not images or len(images) % 2:
        raise SchemaError("'images' must map a1,b1,...,ag,bg to matrices")
    genus = len(images) // 2
    mats = []
    for k in range(1, 2 * genus + 1):
        name = W.format_word([k])
        if name not in images:
            raise SchemaError(f"missing image for generator {name}")
        m = matrix_from_json(images[name])
        if m.shape != (spec.matrix_dim, spec.matrix_dim):
            raise SchemaError(f"image {name} has shape {m.shape}, "
                              f"expected {(spec.matrix_dim,) * 2}")
        mats.append(m)
    try:
        rep = S.Representation(spec, genus, mats)
    except np.linalg.LinAlgError as err:
        raise SchemaError(f"images must be invertible: {err}") from err
    for k in range(1, 2 * genus + 1):
        if not np.all(np.isfinite(rep.image(-k))):
            raise SchemaError(f"image {W.format_word([k])} has no finite inverse")
    return rep


def perturbation_from_json(obj, genus: int, dim: int) -> dict:
    """Per-letter matrices; letters absent from the file carry zero."""
    if not isinstance(obj, dict):
        raise SchemaError("perturbation must map letters to matrices")
    pert = {k: np.zeros((dim, dim), dtype=complex)
            for k in range(1, 2 * genus + 1)}
    for name, data in obj.items():
        try:
            word = W.parse_word(name)
        except W.WordError as err:
            raise SchemaError(f"bad perturbation key {name!r}") from err
        if len(word) != 1 or word[0] < 0 or word[0] > 2 * genus:
            raise SchemaError(f"perturbation key {name!r} must be a single "
                              "positive generator")
        m = matrix_from_json(data)
        if m.shape != (dim, dim):
            raise SchemaError(f"perturbation {name!r} has shape {m.shape}")
        pert[word[0]] = m
    return pert


def dgla_to_json(dgla: DG.CyclicDgla) -> dict:
    d0, d1 = dgla.dims
    return {"d0": d0, "d1": d1,
            **{name: getattr(dgla, name).tolist() for name in DG.shapes(d0, d1)}}


def dgla_from_json(obj) -> DG.CyclicDgla:
    if not isinstance(obj, dict) or "d0" not in obj or "d1" not in obj:
        raise SchemaError("DGLA file needs explicit 'd0' and 'd1'")
    d0, d1 = obj["d0"], obj["d1"]
    if not is_integer(d0) or not is_integer(d1) or d0 < 1 or d1 < 1:
        raise SchemaError("'d0' and 'd1' must be positive integers")
    fields = {}
    for name, shape in DG.shapes(d0, d1).items():
        if name not in obj:
            raise SchemaError(f"DGLA file is missing {name!r}")
        arr = fields[name] = _numbers(obj[name], name)
        if arr.shape != shape:
            raise SchemaError(f"{name} has shape {arr.shape}, expected {shape}")
    return DG.CyclicDgla(**fields)
