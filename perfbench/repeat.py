"""Repeat mode: run workloads N times on different seeds and report spread.

    python3 perfbench/repeat.py --workload goldman-long --runs 10
    python3 perfbench/repeat.py --workload all --runs 10 --seed0 101

For each end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound in BENCHMARK.json and the spread of the figures as
measured, before the host-speed scaling, and it checks that every run is correct
and fails the same share of its operations.  Run from the repository root;
the raw results go to perfbench/out/repeat-<workload>-seed<seed0>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2])
    result["wall_s"] = wall
    return result


def spread(vals: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def summarize(workload: str, results: list[dict], bounds: dict) -> bool:
    ok = True
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    walls = [r["wall_s"] for r in results]
    print(f"{workload}: {len(results)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
          f"failed share {sorted(map(str, shares))}")
    if len(shares) != 1:
        print("  FAILED SHARE DIFFERS BETWEEN RUNS")
        ok = False
    if not all(r["correct"] for r in results):
        print("  SOME RUN IS NOT CORRECT")
        ok = False
    for name in results[0]["metrics"]:
        med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in results])
        bound = bounds[name]
        flag = "  above a third of the bound" if name != "setup_s" and sp > bound / 3 else ""
        raw = spread([r["record"]["measured"][name] for r in results])[3]
        unit = results[0]["metrics"][name]["unit"]
        print(f"  {name:24s} median {med:12.6g} {unit:10s} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"spread {sp:6.3f} measured {raw:6.3f} bound {bound}{flag}")
    return ok


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        results = [run_once(workload, args.seed0 + i, args.seconds) for i in range(args.runs)]
        out = HERE / "out" / f"repeat-{workload}-seed{args.seed0}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(results, indent=1))
        ok = summarize(workload, results, bounds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
