"""Span recording for the traced run, and the per-layer metrics it yields.

install() replaces each public function of the loopbracket modules with a
wrapper assigned as a module attribute.  Calls between functions of one
module look names up through the module's globals, so they reach the
wrappers; names bound by `from ... import` (such as cli.bracket_oriented)
are rebound to the same wrappers.  A span is (name, parent, start, end),
kept in flat arrays until write(); self time is a span's duration minus
the time its direct children cover.  Counters are updated by hooks at the
same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

import reference as R

MODULES = ("surface", "polygon", "bracket", "groups", "transport", "dgla",
           "serialize", "verify", "cli")

# per-layer metrics, in the order BENCHMARK.json lists them
CALLS = ("surface.canonical_cyclic", "surface.holonomy",
         "surface.sample_representation", "polygon.realize",
         "polygon.realized_pair", "groups.variation", "groups.pairing",
         "groups.random_element", "transport.picard_transport",
         "verify.run_trial")
SELF = ("surface.canonical_cyclic", "surface.holonomy",
        "surface.sample_representation", "polygon.intersections",
        "bracket.bracket_oriented", "bracket.bracket_unoriented",
        "bracket.bracket_sums", "bracket.LoopSum.evaluate",
        "bracket.poisson_direct", "groups.variation", "groups.pairing",
        "groups.random_element", "transport.picard_transport",
        "transport.rk4_transport", "transport.perturbed_holonomy",
        "transport.rk4_perturbed_holonomy", "transport.word_perturbation_path",
        "cli.main", "cli.dumps", "serialize.rep_from_json",
        "serialize.rep_to_json", "serialize.curves_from_json",
        "serialize.loopsum_to_json", "serialize.perturbation_from_json",
        "verify.run_trial", "dgla.axioms_residual")
COUNTS = ("polygon.rejected_attempts", "polygon.crossings", "bracket.terms",
          "transport.path_samples", "transport.certificate_violations",
          "dgla.mc_solve.iterations")
RATIOS = ("polygon.realize.useful_ratio", "trace.overhead_ratio")
SECONDS = ("cli.interpreter_s", "cli.import_s", "cli.import_numpy_s",
           "cli.import_scipy_s", "trace.overhead_s")


def layer_metric_units() -> dict[str, str]:
    units = {f"{n}.calls": "count" for n in CALLS}
    units.update({f"{n}.self_s": "s" for n in SELF})
    units.update({n: "count" for n in COUNTS})
    units.update({n: "ratio" for n in RATIOS})
    units.update({n: "s" for n in SECONDS})
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            out = err = None
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as e:
                err = e
                raise
            finally:
                self._close(idx)
                if hook:
                    hook(self.counters, args, out, err)

        return wrapper

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds)."""
        if not self.start:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        own = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        selfs = np.bincount(name, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(selfs[i])) for i, n in enumerate(self.names)}

    def write(self, path):
        """Spans as flat arrays in one .npz; names and counters as JSON."""
        np.savez(path, name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 names=json.dumps(self.names), counters=json.dumps(dict(self.counters)))


# --- counter hooks -------------------------------------------------------

def _rejected(err) -> bool:
    return type(err).__name__ == "RealizationError"


def _realize_hook(counters, args, out, err):
    if R.cyclic_reduce(list(args[1])):
        counters["polygon.realize.nonempty_calls"] += 1
    counters["polygon.rejected_attempts"] += _rejected(err)


def _intersections_hook(counters, args, out, err):
    if out is not None:
        counters["polygon.crossings"] += len(out)
    counters["polygon.rejected_attempts"] += _rejected(err)


def _pair_hook(counters, args, out, err):
    if out is not None:
        counters["polygon.realize.useful_calls"] += sum(
            1 for w in args[1:3] if R.cyclic_reduce(list(w)))


def _terms_hook(counters, args, out, err):
    if out is not None:
        counters["bracket.terms"] += len(out.terms)


def _mc_hook(counters, args, out, err):
    if out is not None:
        counters["dgla.mc_solve.iterations"] += out.iterations


HOOKS = {"polygon.realize": _realize_hook,
         "polygon.intersections": _intersections_hook,
         "polygon.realized_pair": _pair_hook,
         "bracket.bracket_oriented": _terms_hook,
         "bracket.bracket_unoriented": _terms_hook,
         "dgla.mc_solve": _mc_hook}


def load_modules() -> dict:
    return {m: importlib.import_module(f"loopbracket.{m}") for m in MODULES}


def install(tracer: Tracer) -> list:
    """Wrap every public function of MODULES, plus LoopSum.evaluate, and
    rebind names imported elsewhere; returns the (owner, attribute,
    original) triples that uninstall() puts back."""
    mods = load_modules()
    swap = {}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{short}.{attr}"
                swap[obj] = tracer.wrap(name, obj, HOOKS.get(name))
    saved = []
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in swap:
                saved.append((mod, attr, obj))
                setattr(mod, attr, swap[obj])
    loopsum = mods["bracket"].LoopSum
    saved.append((loopsum, "evaluate", loopsum.evaluate))
    loopsum.evaluate = tracer.wrap("bracket.LoopSum.evaluate", loopsum.evaluate)
    return saved


def uninstall(saved: list):
    for owner, attr, obj in saved:
        setattr(owner, attr, obj)


# --- interpreter and import start-up -------------------------------------

def startup_profile(env: dict) -> dict[str, float]:
    """Interpreter start-up and the import cost of loopbracket.cli, numpy
    and scipy, from `python -X importtime` in a fresh interpreter.  A
    package's cost is the cumulative time of its outermost imports, so
    scipy's includes the numpy submodules it pulls in and numpy's only
    what is imported outside scipy."""
    bare = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        bare.append(time.perf_counter() - t0)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import loopbracket.cli"],
                          env=env, capture_output=True, text=True, check=True)
    entries = []  # (depth, module, cumulative us), children before parents
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    cost = {"loopbracket": 0, "numpy": 0, "scipy": 0}
    ancestors: list[tuple[int, str]] = []
    for depth, mod, cum in reversed(entries):  # parents first
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        top = mod.split(".")[0]
        seen = {a.split(".")[0] for _, a in ancestors}
        if top in cost and top not in seen and not (top == "numpy" and "scipy" in seen):
            cost[top] += cum
        ancestors.append((depth, mod))
    return {"cli.interpreter_s": statistics.median(bare),
            "cli.import_s": cost["loopbracket"] * 1e-6,
            "cli.import_numpy_s": cost["numpy"] * 1e-6,
            "cli.import_scipy_s": cost["scipy"] * 1e-6}


def layer_metrics(tracer: Tracer, startup: dict, overhead_s: float,
                  overhead_ratio: float) -> dict[str, float]:
    st = tracer.self_times()
    c = tracer.counters
    out = {}
    for n in CALLS:
        out[f"{n}.calls"] = st.get(n, (0, 0.0))[0]
    for n in SELF:
        out[f"{n}.self_s"] = st.get(n, (0, 0.0))[1]
    for n in COUNTS:
        out[n] = int(c[n])
    nonempty = c["polygon.realize.nonempty_calls"]
    out["polygon.realize.useful_ratio"] = (c["polygon.realize.useful_calls"] / nonempty
                                           if nonempty else 1.0)
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.overhead_s"] = overhead_s
    out.update(startup)
    return out
