"""Run one benchmark workload against the loopbracket sources in src/.

    python3 perfbench/run.py --workload goldman-long --seed 1 --seconds 12 --trace 0

Workloads: goldman-long, bracket-short, chen-transport, cli-session.  With
--trace 0 the last stdout line is the result with every end-to-end metric;
with --trace 1 the public functions are wrapped and it carries the
per-layer metrics instead, and the spans go to perfbench/out/.  The line
before the last holds the run record: sample counts, tail percentiles,
BLAS thread count and library versions.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("goldman-long", "bracket-short", "chen-transport", "cli-session")
BLAS_THREADS = "1"
SETUP_PROBES = 7
# round 0 untraced (False) and traced (True) in this order prices the wrappers
OVERHEAD_ORDER = (False, True, True, False)


def percentile_detail(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(samples)}
    if samples:
        out["p50"] = statistics.median(samples)
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(samples, n=100)[p - 1]
            break
    return out


def probe(env: dict, *args) -> float:
    """The figure one probe.py child prints."""
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), *args],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def setup_seconds(env: dict, mode: str) -> dict:
    """Median set-up time over SETUP_PROBES fresh interpreters, at the
    reference host speed and as measured."""
    import speed

    starts = speed.StartGauge(env)
    probes = [starts.time(partial(probe, env, mode)) for _ in range(SETUP_PROBES)]
    return {"reference": statistics.median(s / slow for s, _, slow in probes),
            "measured": statistics.median(s for s, _, _ in probes)}


def end_to_end(run, setup: dict, peak_rss_mb: float):
    """Every end-to-end metric at the reference host speed (see speed.py),
    and the same figures as measured.  An in-process operation is scaled
    by the kernel samples next to it, a new process (set-up probe, CLI
    call) by the bare interpreter starts around it."""
    cli = [d for d, _ in run.samples["cli_s"]]
    out = {}
    for label, times, cli_s in (
            ("reference", lambda k: run.gauge.at_reference(run.samples[k]),
             [d / slow for d, slow in zip(cli, run.cli_slowdowns)]),
            ("measured", lambda k: [d for d, _ in run.samples[k]], cli)):
        out[label] = {
            "setup_s": (setup[label], "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "goldman_pairs_per_s": (len(times("pair_s")) / sum(times("pair_s")), "pairs/s"),
            "bracket_ms_p50": (1e3 * statistics.median(times("bracket_s")), "ms"),
            "short_brackets_per_s": (run.short_calls / sum(times("short_s")), "brackets/s"),
            "path_transports_per_s": (len(times("path_s")) / sum(times("path_s")), "paths/s"),
            "perturbed_words_per_s": (len(times("word_s")) / sum(times("word_s")), "words/s"),
            "cli_call_ms_p50": (1e3 * statistics.median(cli_s), "ms"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out["reference"].items()}
    return metrics, {k: v for k, (v, _) in out["measured"].items()}


def rounds_until(run, workload: str, deadline: float) -> int:
    """Whole rounds, at least one, until the deadline has passed; returns
    the number of rounds run."""
    import workloads as W

    rnd = 0
    while rnd == 0 or time.perf_counter() < deadline:
        W.run_round(run, workload, rnd)
        rnd += 1
    return rnd


def trace_overhead(workload: str, seed: int, workdir: Path, env: dict):
    """Round 0 once untraced to warm up, then untraced, traced, traced,
    untraced (OVERHEAD_ORDER), each timed at the reference host speed: a
    drift of the host's speed that is linear over the four rounds cancels
    from the difference of the two sides.  Returns the (traced?, seconds)
    of the four rounds and the checks that failed."""
    import tracing
    import workloads as W

    rounds, problems = [], []
    for traced in (False,) + OVERHEAD_ORDER:
        tracer = tracing.Tracer() if traced else None
        saved = tracing.install(tracer) if traced else []
        run = W.Run(seed, workdir, env, tracer=tracer, cli_inprocess=True)
        try:
            t0 = time.perf_counter()
            W.run_round(run, workload, 0)
            t1 = time.perf_counter()
        finally:
            tracing.uninstall(saved)
        rounds.append((traced, (t1 - t0) / run.gauge.slowdown_during(t0, t1)))
        problems += run.problems
    return rounds[1:], problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "loopbracket" / "__init__.py").is_file():
        print(f"error: no loopbracket sources under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread, fixed before numpy loads, here and in every child
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    # one core for this process and its children, the one the host-speed
    # kernel then measures too
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    cli_mode = args.workload == "cli-session"
    if not args.trace:
        setup = setup_seconds(env, "cli" if cli_mode else "api")
        if not cli_mode:
            peak_rss_mb = probe(env, "rss", args.workload, str(args.seed))

    import loopbracket
    if Path(loopbracket.__file__).resolve().parent != SRC / "loopbracket":
        print(f"error: loopbracket imported from {loopbracket.__file__}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import probe as P
    import tracing
    import workloads as W

    P.warm_up()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "blas_threads": int(BLAS_THREADS),
              "python": sys.version.split()[0], "numpy": numpy.__version__,
              "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu}
    try:
        if args.trace:
            startup = tracing.startup_profile(env)
            overhead, problems = trace_overhead(args.workload, args.seed, workdir, env)
            untraced, traced = (statistics.mean(s for t, s in overhead if t == side)
                                for side in (False, True))
            tracer = tracing.Tracer()
            record["wrapped_attributes"] = len(tracing.install(tracer))
            run = W.Run(args.seed, workdir, env, tracer=tracer, cli_inprocess=True)
            rounds = rounds_until(run, args.workload, time.perf_counter() + args.seconds)
            run.problems += problems
            tracer.counters["transport.path_samples"] = run.path_samples
            tracer.counters["transport.certificate_violations"] = run.certificate_violations
            values = tracing.layer_metrics(tracer, startup, traced - untraced,
                                           traced / untraced - 1)
            units = tracing.layer_metric_units()
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
            spans_path = OUT / f"spans-{tag}.npz"
            tracer.write(spans_path)
            record.update({"spans": len(tracer.start), "spans_file": str(spans_path.relative_to(ROOT)),
                           "overhead_rounds": overhead})
        else:
            run = W.Run(args.seed, workdir, env)
            rounds = rounds_until(run, args.workload, time.perf_counter() + args.seconds)
            if cli_mode:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            metrics, record["measured"] = end_to_end(run, setup, peak_rss_mb)
            record["kernel_slowdown"] = run.gauge.slowdown()
            if run.cli_slowdowns:
                record["start_slowdown"] = statistics.median(run.cli_slowdowns)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update({"rounds": rounds, "attempted": run.attempted, "failed": run.failed,
                   "failures": dict(run.failures), "problems": run.problems[:20],
                   "samples": {k: percentile_detail([d for d, _ in v])
                               for k, v in sorted(run.samples.items())}})
    for what in run.problems[:20]:
        print(f"check failed: {what}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
