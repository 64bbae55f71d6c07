"""Probes of loopbracket in a fresh interpreter.

    python3 perfbench/probe.py api                      # import + warm-up on tiny inputs, s
    python3 perfbench/probe.py cli                      # import loopbracket.cli, s
    python3 perfbench/probe.py rss goldman-long 1       # peak resident memory, MB

Prints its figure on stdout.  The caller puts src/ on PYTHONPATH.  The rss
probe sets up as `api` does, then runs the home block of the workload's
first round for the given seed without reference computations or checks,
so that its process holds nothing but the package and its inputs.
"""

import sys
import time

GROUPS = ("GL(2,R)", "GL(2,C)", "GL(3,C)", "O(2,1)", "O(2,C)", "U(1,1)",
          "Sp(2,R)", "Sp(1,1)")


def warm_up():
    """One tiny call per layer the in-process workloads drive; fills the
    algebra-basis caches of every group the benchmark uses."""
    import numpy as np

    from loopbracket import bracket, serialize, surface, transport

    rng = np.random.default_rng(0)
    for name in GROUPS:
        rep = surface.sample_representation(serialize.parse_group_string(name), 1, rng)
    bracket.bracket_oriented(1, [1], [2]).evaluate(rep)
    bracket.poisson_direct(rep, [1], [2])
    zero = np.zeros((2, 2))
    transport.picard_transport(transport.MatrixPath(lambda t: zero, 2), n_steps=4)
    transport.rk4_transport(transport.MatrixPath(lambda t: zero, 2), n_steps=4)


def setup_seconds(mode: str) -> float:
    t0 = time.perf_counter()
    if mode == "cli":
        import loopbracket.cli  # noqa: F401
    else:
        import loopbracket  # noqa: F401
        warm_up()
    return time.perf_counter() - t0


def peak_rss_mb(workload: str, seed: int) -> float:
    import resource
    from pathlib import Path

    import workloads as W

    warm_up()
    run = W.Run(seed, Path.cwd(), {}, checks=False)
    for op in W.WORKLOADS[workload](run, W.round_rng(run, workload, 0), 0):
        op()
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    if sys.argv[1] == "rss":
        print(repr(peak_rss_mb(sys.argv[2], int(sys.argv[3]))))
    else:
        print(repr(setup_seconds(sys.argv[1])))
