"""JSON schemas shared by the CLI and the file-based workflows.

Matrices travel as row-major arrays of [re, im] pairs, group specs as
{"kind", "n", "p", "q"}, representations as {"group": ..., "images":
{"a1": matrix, ...}}, loop sums as [{"coef": "1/2", "word": "a1 b1"}],
perturbations as {"a1": matrix, ...}, and DGLA tensors as dense real
arrays with explicit dimensions.  Every reader validates shape and
finiteness and raises SchemaError, which the CLI maps to exit code 2;
representation images must also have finite inverses.  Curve files,
loop sums and SchemaError live in `schema`, on the standard library
alone.
"""

from __future__ import annotations

import re

import numpy as np

from . import dgla as DG
from . import groups as G
from . import surface as S
from . import words as W
from .schema import SchemaError, is_integer


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise SchemaError("matrix must be a non-empty array of rows")
    width = None
    rows = []
    for row in data:
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise SchemaError("matrix rows must be arrays of equal length")
        width = len(row)
        out = []
        for cell in row:
            if (not isinstance(cell, list) or len(cell) != 2
                    or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                               for c in cell)):
                raise SchemaError("matrix entries must be [re, im] pairs")
            out.append(complex(cell[0], cell[1]))
        rows.append(out)
    m = np.array(rows, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise SchemaError("matrix entries must be finite")
    return m


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


_GROUP_RE = re.compile(r"^(GL|O|U|Sp)\(([0-9]+)(?:,([0-9]+|[RC]))?\)$")


def parse_group_string(text: str) -> G.GroupSpec:
    """Names like GL(2,R), O(1,1), O(2,C), U(2), Sp(2,R), Sp(1,1)."""
    m = _GROUP_RE.match(text.strip())
    if not m:
        raise SchemaError(f"cannot parse group name {text!r}")
    fam, first, second = m.group(1), int(m.group(2)), m.group(3)
    try:
        if fam == "GL":
            if second not in ("R", "C"):
                raise SchemaError(f"GL needs a field: {text!r}")
            return G.GroupSpec("GL_R" if second == "R" else "GL_C", first)
        if fam == "O":
            if second == "C":
                return G.GroupSpec("O_C", first)
            if second == "R":
                raise SchemaError(f"bad signature in {text!r}")
            if second is None:
                return G.GroupSpec("O_pq", first, first, 0)
            q = int(second)
            return G.GroupSpec("O_pq", first + q, first, q)
        if fam == "U":
            if second in ("R", "C"):
                raise SchemaError(f"bad signature in {text!r}")
            if second is None:
                return G.GroupSpec("U_pq", first, first, 0)
            q = int(second)
            return G.GroupSpec("U_pq", first + q, first, q)
        if second == "R":
            return G.GroupSpec("Sp_R", first)
        if second is None or second == "C":
            raise SchemaError(f"Sp needs R or a signature: {text!r}")
        q = int(second)
        return G.GroupSpec("Sp_pq", first + q, first, q)
    except G.GroupError as err:
        raise SchemaError(f"bad group {text!r}: {err}") from err


def format_group_string(spec: G.GroupSpec) -> str:
    if spec.kind == "GL_R":
        return f"GL({spec.n},R)"
    if spec.kind == "GL_C":
        return f"GL({spec.n},C)"
    if spec.kind == "O_C":
        return f"O({spec.n},C)"
    if spec.kind == "Sp_R":
        return f"Sp({spec.n},R)"
    fam = {"O_pq": "O", "U_pq": "U", "Sp_pq": "Sp"}[spec.kind]
    if spec.q == 0:
        return f"{fam}({spec.p})"
    return f"{fam}({spec.p},{spec.q})"


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


def _real_array_from_json(data, shape, name) -> np.ndarray:
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError) as err:
        raise SchemaError(f"{name} must be a dense real array") from err
    if arr.shape != shape:
        raise SchemaError(f"{name} has shape {arr.shape}, expected {shape}")
    # float() reads true as 1.0 and "1.5" as 1.5: only JSON numbers count
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in np.array(data, dtype=object).flat):
        raise SchemaError(f"{name} entries must be numbers")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{name} must be finite")
    return arr


def dgla_to_json(dgla: DG.CyclicDgla) -> dict:
    d0, d1 = dgla.dims
    return {"d0": d0, "d1": d1,
            "b00": dgla.b00.tolist(), "b01": dgla.b01.tolist(),
            "b11": dgla.b11.tolist(), "d_eo": dgla.d_eo.tolist(),
            "d_oe": dgla.d_oe.tolist(), "w00": dgla.w00.tolist(),
            "w11": dgla.w11.tolist()}


def dgla_from_json(obj) -> DG.CyclicDgla:
    if not isinstance(obj, dict) or "d0" not in obj or "d1" not in obj:
        raise SchemaError("DGLA file needs explicit 'd0' and 'd1'")
    d0, d1 = obj["d0"], obj["d1"]
    if not is_integer(d0) or not is_integer(d1) or d0 < 1 or d1 < 1:
        raise SchemaError("'d0' and 'd1' must be positive integers")
    shapes = {"b00": (d0, d0, d0), "b01": (d1, d0, d1), "b11": (d0, d1, d1),
              "d_eo": (d1, d0), "d_oe": (d0, d1),
              "w00": (d0, d0), "w11": (d1, d1)}
    fields = {}
    for name, shape in shapes.items():
        if name not in obj:
            raise SchemaError(f"DGLA file is missing {name!r}")
        fields[name] = _real_array_from_json(obj[name], shape, name)
    try:
        return DG.CyclicDgla(**fields)
    except DG.DglaError as err:
        raise SchemaError(str(err)) from err
