"""Command-line workbench.

Subcommands: bracket (combinatorial bracket of two named curves),
holonomy (trace and matrix of a word under a representation, optionally
perturbed), verify (randomized invariant batteries), sample-rep
(random surface-group representation), dgla-check (axiom battery on a
serialized or built-in instance).

Determinism contract: stdout is a pure function of (command, input
files, seed).  Reports print floats at 12 significant digits; files
written via --out keep full double precision.  Exit codes: 0 success
(verify/dgla-check: all checks passed), 1 check failure (including a
holonomy output that is not finite, which is never printed), 2 bad
input or unknown suite, 3 realization failure, 4 relator residual
above tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import dgla as DG
from . import groups as G
from . import polygon as P
from . import serialize as Z
from . import surface as S
from . import transport as T
from . import verify as V
from .bracket import bracket_oriented, bracket_unoriented

TAU_REP = 1e-9


def canonical(obj):
    """Round floats to 12 significant digits, recursively."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return str(obj)
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    return obj


def dumps(obj) -> str:
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def dumps_full(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise Z.SchemaError(f"{path}: invalid JSON: {err}") from err
    except OSError as err:
        raise Z.SchemaError(f"cannot read {path}: {err}") from err


def _write_out(path, text: str):
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def cmd_bracket(args) -> int:
    genus, curves = Z.curves_from_json(_load_json(args.input))
    for name in (args.first, args.second):
        if name not in curves:
            raise Z.SchemaError(f"no curve named {name!r} in {args.input}")
    fn = bracket_unoriented if args.unoriented else bracket_oriented
    ls = fn(genus, curves[args.first], curves[args.second], seed=args.seed)
    text = dumps(Z.loopsum_to_json(ls))
    print(text)
    _write_out(args.out, text)
    return 0


class NonFiniteResult(ArithmeticError):
    """A computed output overflowed or became NaN."""


def _finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite(v) for v in obj)
    return True


@np.errstate(over="ignore", invalid="ignore")  # reported by NonFiniteResult
def cmd_holonomy(args) -> int:
    rep = Z.rep_from_json(_load_json(args.input))
    word = S.parse_word(args.word)
    S.check_word(word, rep.genus)
    tol = args.tol if args.tol is not None else TAU_REP
    resid = S.relator_residual(rep)
    if not resid <= tol:  # a NaN residual fails too
        raise S.RelatorError(f"relator residual {resid:.3e} exceeds {tol:.3e}")
    hol = S.holonomy(rep, word)
    out = {"word": S.format_word(word),
           "trace": G.invariant_f(rep.spec, hol),
           "holonomy": Z.matrix_to_json(hol)}
    if args.perturbation:
        pert = Z.perturbation_from_json(_load_json(args.perturbation),
                                        rep.genus, rep.spec.matrix_dim)
        res = T.perturbed_holonomy(rep, pert, word)
        rk4 = T.rk4_perturbed_holonomy(rep, pert, word)
        out.update({
            "perturbed_holonomy": Z.matrix_to_json(res.value),
            "perturbed_trace": G.invariant_f(rep.spec, res.value),
            "series_order": len(res.series) - 1,
            "remainder_bound": res.remainder_bound,
            "rk4_delta": float(np.linalg.norm(res.value - rk4)),
        })
    if not _finite(out):
        raise NonFiniteResult(f"holonomy of {args.word!r} is not finite "
                              "in double precision")
    text = dumps(out)
    print(text)
    _write_out(args.out, dumps_full(out))
    return 0


def _verify_worker(job):
    suite, seed, idx, genus, group, tol = job
    return V.run_trial(suite, seed, idx, genus=genus, group=group, tol=tol)


def cmd_verify(args) -> int:
    n = args.trials if args.trials else V.default_trials(args.suite)
    jobs = [(args.suite, args.seed, i, args.genus, args.group, args.tol)
            for i in range(n)]
    if args.parallel and args.parallel > 1:
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, n // args.parallel)
        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            records = list(pool.map(_verify_worker, jobs, chunksize=chunk))
    else:
        records = [_verify_worker(job) for job in jobs]
    summary = V.summarize(args.suite, args.seed, records)
    lines = [dumps(r) for r in records] + [dumps(summary)]
    print("\n".join(lines))
    if args.out:
        full = [dumps_full(r) for r in records] + [dumps_full(summary)]
        _write_out(args.out, "\n".join(full))
    return 0 if summary["pass"] else 1


def cmd_sample_rep(args) -> int:
    if not args.group:
        raise Z.SchemaError("sample-rep needs --group")
    spec = Z.parse_group_string(args.group)
    genus = args.genus if args.genus else 1
    rng = np.random.default_rng([args.seed, 0])
    tol = args.tol if args.tol is not None else 1e-12
    rep = S.sample_representation(spec, genus, rng, tol=tol)
    obj = Z.rep_to_json(rep)
    print(dumps(obj))
    _write_out(args.out, dumps_full(obj))
    return 0


def cmd_dgla_check(args) -> int:
    if args.toy:
        spec = Z.parse_group_string(args.toy)
        inst = DG.surface_toy_instance(args.genus if args.genus else 1, spec)
    elif args.input:
        inst = Z.dgla_from_json(_load_json(args.input))
    else:
        raise Z.SchemaError("dgla-check needs a DGLA file or --toy GROUP")
    tol = args.tol if args.tol is not None else 1e-12
    report = DG.axioms_residual(inst)
    ok = DG.axioms_pass(report, tol=tol)
    d0, d1 = inst.dims
    out = {"dims": [d0, d1], "tol": tol, "axioms": report, "pass": ok}
    text = dumps(out)
    print(text)
    _write_out(args.out, dumps_full(out))
    return 0 if ok else 1


def _count(text: str) -> int:
    """argparse type for --seed and --trials: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_count, default=0)
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--genus", type=int, default=None)
    common.add_argument("--group", default=None)
    common.add_argument("--out", default=None)

    parser = argparse.ArgumentParser(prog="loopbracket")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", parents=[common],
                       help="bracket of two named curves from a curve file")
    p.add_argument("input", help="curves JSON file, or - for stdin")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--unoriented", action="store_true")
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("holonomy", parents=[common],
                       help="holonomy and trace of a word under a representation")
    p.add_argument("input", help="representation JSON file, or - for stdin")
    p.add_argument("word", help="curve word, e.g. 'a1 b1' (may be empty)")
    p.add_argument("--perturbation", default=None,
                   help="JSON file of per-generator perturbation matrices")
    p.set_defaults(fn=cmd_holonomy)

    p = sub.add_parser("verify", parents=[common],
                       help="run an invariant battery, one JSON line per trial")
    p.add_argument("suite", choices=V.SUITE_NAMES)
    p.add_argument("--trials", type=_count, default=None)
    p.add_argument("--parallel", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sample-rep", parents=[common],
                       help="sample a surface-group representation")
    p.set_defaults(fn=cmd_sample_rep)

    p = sub.add_parser("dgla-check", parents=[common],
                       help="axiom battery on a DGLA instance")
    p.add_argument("input", nargs="?", default=None,
                   help="DGLA JSON file (omit when using --toy)")
    p.add_argument("--toy", default=None,
                   help="built-in instance for this group, e.g. GL(2,R)")
    p.set_defaults(fn=cmd_dgla_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (Z.SchemaError, S.WordError, DG.DglaError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except P.RealizationError as err:
        print(f"realization failure: {err}", file=sys.stderr)
        return 3
    except S.RelatorError as err:
        print(f"relator failure: {err}", file=sys.stderr)
        return 4 if args.command == "holonomy" else 3
    except NonFiniteResult as err:
        print(f"non-finite result: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
