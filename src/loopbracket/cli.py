"""Command-line workbench.

Subcommands: bracket (combinatorial bracket of two named curves),
holonomy (trace and matrix of a word under a representation, optionally
perturbed), verify (randomized invariant batteries), sample-rep
(random surface-group representation), dgla-check (axiom battery on a
serialized or built-in instance, never both).

Each subcommand takes only the flags it reads.  Determinism contract:
stdout is a pure function of (command, input files, seed).  Reports
print floats at 12 significant digits; files written via --out keep
full double precision.  Exit codes: 0 success (verify/dgla-check: all
checks passed), 1 check failure (including an output of any command
that is not finite, which is never printed, and a stdout closed by its
reader before the output was written), 2 bad input or unknown suite
(including a flag the subcommand does not take, a --tol that is not a
finite float > 0, a --genus or --trials below 1, --genus or --group
given to a verify suite that does not read it, a --group whose kind a
goldman verify suite's bracket does not model, dgla-check given a file
together with --toy or --genus, and an --out file that cannot be
written), 3 no representation found within the sampler's tries, 4
relator residual above tolerance.  Every pair of valid curves realizes,
so bracket exits 0 or 2.

Each subcommand imports the modules it runs when it runs, because a
process with no bytecode cache compiles every module it imports:
importing cli loads schema and words, bracket adds bracket and polygon
and never numpy, sample-rep and holonomy add groups, serialize and
surface (holonomy --perturbation also transport), dgla-check adds
those three and dgla, and verify adds those three, verify and its
suite's own modules.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .schema import DglaError, SchemaError, curves_from_json, loopsum_to_json
from .words import RelatorError, WordError, check_word, format_word, parse_word

TAU_REP = 1e-9


class NonFiniteResult(ArithmeticError):
    """A computed output overflowed or became NaN."""


def canonical(obj, where="output"):
    """Round floats to 12 significant digits, recursively.

    A non-finite float raises NonFiniteResult naming the innermost key
    that holds it, so no report ever prints inf or NaN.
    """
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteResult(f"{where} is {obj} in double precision")
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: canonical(v, k) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v, where) for v in obj]
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
    except (ValueError, RecursionError) as err:
        # ValueError also covers an integer literal of more digits than
        # Python converts, RecursionError arrays nested too deep to decode
        raise SchemaError(f"{path}: invalid JSON: {err}") from err
    except OSError as err:
        raise SchemaError(f"cannot read {path}: {err}") from err


def _emit(args, *docs):
    """Print the report of each document, one line each, after writing
    them at full precision to --out; a non-finite output raises before
    either is written."""
    text = "\n".join(map(dumps, docs))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write("\n".join(map(dumps_full, docs)) + "\n")
        except OSError as err:
            raise SchemaError(f"cannot write {args.out}: {err}") from err
    print(text)


def cmd_bracket(args) -> int:
    from .bracket import bracket_oriented, bracket_unoriented

    genus, curves = curves_from_json(_load_json(args.input))
    for name in (args.first, args.second):
        if name not in curves:
            raise SchemaError(f"no curve named {name!r} in {args.input}")
    fn = bracket_unoriented if args.unoriented else bracket_oriented
    ls = fn(genus, curves[args.first], curves[args.second])
    _emit(args, loopsum_to_json(ls))
    return 0


def cmd_holonomy(args) -> int:
    import numpy as np

    from . import groups as G
    from . import serialize as Z
    from . import surface as S

    with np.errstate(over="ignore", invalid="ignore"):  # reported by NonFiniteResult
        rep = Z.rep_from_json(_load_json(args.input))
        word = parse_word(args.word)
        check_word(word, rep.genus)
        resid = S.relator_residual(rep)
        if not resid <= args.tol:  # a NaN residual fails too
            raise RelatorError(
                f"relator residual {resid:.3e} exceeds {args.tol:.3e}")
        hol = S.holonomy(rep, word)
        out = {"word": format_word(word),
               "trace": G.invariant_f(hol),
               "holonomy": Z.matrix_to_json(hol)}
        if args.perturbation:
            from . import transport as T

            pert = Z.perturbation_from_json(_load_json(args.perturbation),
                                            rep.genus, rep.spec.matrix_dim)
            res = T.perturbed_holonomy(rep, pert, word)
            rk4 = T.rk4_perturbed_holonomy(rep, pert, word)
            out.update({
                "perturbed_holonomy": Z.matrix_to_json(res.value),
                "perturbed_trace": G.invariant_f(res.value),
                "series_order": len(res.series) - 1,
                "remainder_bound": res.remainder_bound,
                "rk4_delta": float(np.linalg.norm(res.value - rk4)),
            })
        _emit(args, out)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    records, summary = run_suite(args.suite, args.seed, args.trials,
                                 args.genus, args.group, args.tol)
    _emit(args, *records, summary)
    return 0 if summary["pass"] else 1


def cmd_sample_rep(args) -> int:
    import numpy as np

    from . import serialize as Z
    from . import surface as S

    spec = Z.parse_group_string(args.group)
    rng = np.random.default_rng([args.seed, 0])
    rep = S.sample_representation(spec, args.genus, rng, tol=args.tol)
    _emit(args, Z.rep_to_json(rep))
    return 0


def cmd_dgla_check(args) -> int:
    import numpy as np

    from . import dgla as DG
    from . import serialize as Z

    if args.toy:
        spec = Z.parse_group_string(args.toy)
        genus = args.genus if args.genus is not None else 1
        inst = DG.surface_toy_instance(genus, spec)
    elif args.input:
        inst = Z.dgla_from_json(_load_json(args.input))
    else:
        raise SchemaError("dgla-check needs a DGLA file or --toy GROUP")
    with np.errstate(over="ignore", invalid="ignore"):  # reported by NonFiniteResult
        report = DG.axioms_residual(inst)
    ok = DG.axioms_pass(report, tol=args.tol)
    d0, d1 = inst.dims
    _emit(args, {"dims": [d0, d1], "tol": args.tol, "axioms": report,
                 "pass": ok})
    return 0 if ok else 1


def _count(text: str) -> int:
    """argparse type for --seed: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    """argparse type for --genus and --trials: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite float > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


class _SuiteNames:
    """The names in verify.SUITES as argparse choices.  They are read from
    verify only when argparse checks or lists a suite, so that the other
    subcommands never import it."""

    def __iter__(self):
        from .verify import SUITES

        return iter(SUITES)


_OPTIONS = {"--seed": {"type": _count, "default": 0},
            "--tol": {"type": _tolerance}, "--genus": {"type": _positive},
            "--trials": {"type": _positive}, "--group": {}, "--out": {}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loopbracket")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, options, help, helps=None, **defaults):
        """A subparser that takes exactly the _OPTIONS named in `options`,
        with the help texts in `helps`."""
        p = sub.add_parser(name, help=help)
        for flag in options.split():
            p.add_argument(flag, **_OPTIONS[flag], help=(helps or {}).get(flag))
        p.set_defaults(fn=fn, **defaults)
        return p

    p = command("bracket", cmd_bracket, "--seed --out",
                "bracket of two named curves from a curve file",
                helps={"--seed": "accepted and changes nothing: the curves alone"
                                 " fix their layout"})
    p.add_argument("input", help="curves JSON file, or - for stdin")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--unoriented", action="store_true")

    p = command("holonomy", cmd_holonomy, "--tol --out",
                "holonomy and trace of a word under a representation",
                tol=TAU_REP)
    p.add_argument("input", help="representation JSON file, or - for stdin")
    p.add_argument("word", help="curve word, e.g. 'a1 b1' (may be empty)")
    p.add_argument("--perturbation", default=None,
                   help="JSON file of per-generator perturbation matrices")

    p = command("verify", cmd_verify,
                "--seed --tol --genus --group --trials --out",
                "run an invariant battery, one JSON line per trial")
    # a metavar keeps argparse from listing the choices while it builds
    p.add_argument("suite", choices=_SuiteNames(), metavar="suite",
                   help="one of %(choices)s")

    p = command("sample-rep", cmd_sample_rep, "--seed --tol --genus --out",
                "sample a surface-group representation", genus=1, tol=1e-12)
    p.add_argument("--group", required=True)

    p = command("dgla-check", cmd_dgla_check, "--tol --genus --out",
                "axiom battery on a DGLA instance", tol=1e-12)
    p.add_argument("input", nargs="?", default=None,
                   help="DGLA JSON file (omit when using --toy)")
    p.add_argument("--toy", default=None,
                   help="built-in instance for this group, e.g. GL(2,R)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        from .verify import SUITES

        for option in ("genus", "group"):
            if (getattr(args, option) is not None
                    and not SUITES[args.suite].reads(option)):
                parser.error(f"verify {args.suite} takes no --{option}")
    # dgla-check FILE reads the genus from the file
    if args.command == "dgla-check" and args.input and (
            args.toy or args.genus is not None):
        parser.error("dgla-check takes a DGLA file or --toy GROUP [--genus G],"
                     " not both")
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # stdout's reader left; silence the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SchemaError, WordError, DglaError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RelatorError as err:
        print(f"relator failure: {err}", file=sys.stderr)
        return 4 if args.command == "holonomy" else 3
    except NonFiniteResult as err:
        print(f"non-finite result: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
