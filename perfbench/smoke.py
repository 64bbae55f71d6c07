"""Smoke check: every workload at its smallest size, result JSON validated.

    python3 perfbench/smoke.py

Runs each workload for one round (--seconds 0), untraced and traced, and
checks the last stdout line against BENCHMARK.json: exactly the keys
correct/attempted/failed/metrics, a correct run, and every end-to-end
(untraced) or per-layer (traced) metric with its unit and a finite value.
It also checks that a directory holding only BENCHMARK.json and the
benchmark exits non-zero without printing a result.  Exit 0 when all pass.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec() -> list[str]:
    errs = []
    if set(SPEC) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        errs.append(f"BENCHMARK.json keys {sorted(SPEC)}")
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer") for m in SPEC[k]]
    errs += [f"bad or repeated name {n!r}" for n in names
             if not NAME.match(n) or names.count(n) > 1]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            errs.append(f"metric {m}")
    errs += [f"bound of {m['name']}" for m in SPEC["end_to_end"] if not 0 < m["bound"] <= 0.25]
    errs += [f"why of {w['name']}" for w in SPEC["workloads"]
             if len(w["why"]) > 200 or "\n" in w["why"]]
    if not 2 <= len(SPEC["workloads"]) <= 8 or not 1 <= SPEC["run_seconds"] <= 60:
        errs.append("workload count or run_seconds out of range")
    return errs


def check_result(line: str, trace: int) -> list[str]:
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(res)}"]
    errs = []
    if res["correct"] is not True:
        errs.append("correct is not true")
    if not (isinstance(res["attempted"], int) and isinstance(res["failed"], int)
            and 0 <= res["failed"] <= res["attempted"] and res["attempted"] >= 1):
        errs.append(f"attempted {res['attempted']!r}, failed {res['failed']!r}")
    want = SPEC["per_layer" if trace else "end_to_end"]
    if set(res["metrics"]) != {m["name"] for m in want}:
        errs.append(f"metric names differ: {sorted(set(res['metrics']) ^ {m['name'] for m in want})}")
    for m in want:
        got = res["metrics"].get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value) or (not trace and value <= 0):
            errs.append(f"{m['name']}: {got}")
    return errs


def main() -> int:
    failures = [f"spec: {e}" for e in check_spec()]
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            cmd = SPEC["command"] + ["--workload", w["name"], "--seed", "7",
                                     "--seconds", "0", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            errs = ([f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
                    if proc.returncode or not lines else check_result(lines[-1], trace))
            failures += [f"{w['name']} trace {trace}: {e}" for e in errs]
            print(f"{w['name']:16s} trace {trace}: {'ok' if not errs else 'FAIL'}", flush=True)
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("a directory without the sources did not fail cleanly")
    print(f"{'without sources':16s}        : {'ok' if proc.returncode else 'FAIL'}")
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
