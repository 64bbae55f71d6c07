"""One round of each benchmark workload, with its failed operations named.

The benchmark reports a run as worse when a larger share of its
operations fails, and its smoke check reads only whether the run was
correct.  This test runs one in-process round of every workload and
fails on any failed operation or problem, printing each one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ROUNDS = """
import json, sys
from pathlib import Path
import workloads

out = {}
for name in workloads.WORKLOADS:
    run = workloads.Run(7, Path(sys.argv[1]), {}, cli_inprocess=True)
    workloads.run_round(run, name, 0)
    out[name] = {"attempted": run.attempted, "failed": run.failed,
                 "failures": dict(run.failures), "problems": run.problems}
print(json.dumps(out))
"""


def test_one_round_of_each_workload_fails_no_operation(tmp_path):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", ROUNDS, str(tmp_path)],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    rounds = json.loads(out.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(rounds) == sorted(w["name"] for w in spec["workloads"])
    for name, r in rounds.items():
        assert r["attempted"] > 0, name
        assert r["failed"] == 0, (name, r["failures"])
        assert r["problems"] == [], (name, r["problems"])
