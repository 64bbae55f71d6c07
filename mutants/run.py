"""Committed mutants of the trust checks: each must fail the tests named for it.

Each entry of MUTANTS is one deliberate fault: the file it goes in
(relative to the repository root), an exact text that occurs once in that
file, the text that replaces it, and the pytest node ids expected to fail
with it.  survivor names the roadmap item that should close a mutant known
to pass its tests, and is None for one that must die.

Run from anywhere, with the test extra installed:

    python mutants/run.py          # every entry
    python mutants/run.py 0 3      # the entries at these indices

For each entry, src/, tests/, perfbench/ and pyproject.toml are copied to
a temporary directory, the mutant is applied there, and
`python -m pytest -x -q` runs the named tests with that copy's src/ first
on PYTHONPATH.  A mutant whose tests all pass survives.  All the named
tests run once on an unmutated copy first, and must pass there.  Exit
status: 0 when every outcome is the recorded one, 1 when a named test
fails unmutated, a mutant survives unmarked or a marked survivor dies
(unmark it), 2 when an old text does not occur exactly once.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    survivor: str | None = None


GOLDMAN = "tests/test_goldman.py::"
TRANSPORT = "tests/test_transport.py::"

MUTANTS = (
    Mutant("a1 and b1 exit sides exchanged",
           "src/loopbracket/polygon.py",
           "    if k % 2:  # a-generator\n",
           "    if k % 2 != (handle == 1):  # a-generator\n",
           (GOLDMAN + "test_brackets_are_mapping_class_equivariant",)),
    Mutant("a1 and b1 exit sides exchanged, against the numeric twin",
           "src/loopbracket/polygon.py",
           "    if k % 2:  # a-generator\n",
           "    if k % 2 != (handle == 1):  # a-generator\n",
           (GOLDMAN + "test_evaluation_and_poisson_side_are_mapping_class_equivariant",)),
    Mutant("poisson_direct conjugates by P_i^-1 .. P_i",
           "src/loopbracket/bracket.py",
           "pre[:-1] @ G.variation(rep.spec, pre[-1]) @ inv[:-1]",
           "inv[:-1] @ G.variation(rep.spec, pre[-1]) @ pre[:-1]",
           (GOLDMAN + "test_poisson_direct_matches_the_based_holonomy_reference",)),
    Mutant("sigma with F in place of F^T: -sigma on Sp(2,R)",
           "src/loopbracket/groups.py",
           "f.T @ adj @ f",
           "f @ adj @ f",
           ("tests/test_groups.py::test_variation_matches_the_inverse_reference_on_the_group",
            GOLDMAN + "test_unoriented_matches_poisson_on_form_kinds")),
    Mutant("sigma without the conjugate, on U(p,q) and Sp(p,q)",
           "src/loopbracket/groups.py",
           "acc.conj() if conj else acc",
           "acc if conj else acc",
           ("tests/test_groups.py::test_variation_off_the_group_is_the_pairing_projection",
            GOLDMAN + "test_unoriented_matches_poisson_on_form_kinds")),
    Mutant("-Im A block of a complex panel flipped",
           "src/loopbracket/transport.py",
           "np.concatenate([f.real, -f.imag], 2)",
           "np.concatenate([f.real, f.imag], 2)",
           (TRANSPORT + "test_complex_levels_are_the_real_blocks_levels",)),
    Mutant("Pade terms of expm summed in reverse order",
           "src/loopbracket/groups.py",
           "inner, v = np.add.reduce(terms, axis=0)",
           "inner, v = np.add.reduce(terms[::-1], axis=0)",
           ("tests/test_groups.py::test_expm_keeps_the_reference_bits",)),
    Mutant("crossing sign of an entering chord flipped",
           "src/loopbracket/polygon.py",
           "found.append((-s, i, j))",
           "found.append((s, i, j))",
           (GOLDMAN + "test_torus_closed_form_small_cases",)),
    Mutant("inverse splice read at rotation j instead of n2 - j",
           "src/loopbracket/bracket.py",
           "key = _splice_key(first, inverse, i, -j % n2)",
           "key = _splice_key(first, inverse, i, j)",
           (GOLDMAN + "test_unoriented_is_the_mean_of_two_oriented_brackets",)),
    Mutant("Koszul sign of the second Jacobi term",
           "src/loopbracket/dgla.py",
           "(-1) ** (q * p))",
           "(-1) ** (q * r))",
           ("tests/test_dgla.py::test_twisted_exterior_instance_pins_odd_jacobi_and_leibniz_signs",)),
    Mutant("Gauss-Legendre tableau transposed",
           "src/loopbracket/transport.py",
           "np.linalg.solve(c ** (m - 1), c ** m / m).T, b",
           "np.linalg.solve(c ** (m - 1), c ** m / m), b",
           (TRANSPORT + "test_gauss_rk_has_order_eight",)),
    Mutant("central difference without its sign product",
           "src/loopbracket/verify.py",
           "sum(math.prod(s) * f(*(x * h for x in s))",
           "sum(f(*(x * h for x in s))",
           ("tests/test_groups.py::test_central_difference_is_exact_on_low_degree_polynomials",)),
    Mutant("earlier handles' inverses multiplied in the wrong order",
           "src/loopbracket/surface.py",
           "inv[k + 1] @ inv[k]",
           "inv[k] @ inv[k + 1]",
           ("tests/test_surface.py::test_sample_representation_genus3",)),
    Mutant("perturbed holonomy scaled by 1.001",
           "src/loopbracket/transport.py",
           "PerturbedHolonomy(psi, psi @ levels.sum(axis=0),",
           "PerturbedHolonomy(psi, 1.001 * psi @ levels.sum(axis=0),",
           (TRANSPORT + "test_perturbed_holonomy_matches_expm_with_honest_bound",)),
)


def occurrences(mutant: Mutant) -> int:
    return (ROOT / mutant.file).read_text().count(mutant.old)


def fails(tests, mutant: Mutant | None = None) -> bool:
    """Whether the tests fail on a copy of the tree, with the mutant in if
    one is given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", "out", ".hypothesis"))
            else:
                shutil.copy2(source, tree / name)
        if mutant is not None:
            target = tree / mutant.file
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tree / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if result.returncode not in (0, 1):  # not a test failure: a usage or collection error
        raise RuntimeError(f"pytest exited {result.returncode} on {' '.join(tests)}")
    return result.returncode == 1


def main(argv: list[str]) -> int:
    chosen = [MUTANTS[int(k)] for k in argv] if argv else list(MUTANTS)
    bad = [m.name for m in chosen if occurrences(m) != 1]
    if bad:
        print("old text not found exactly once: " + "; ".join(bad))
        return 2
    # a test that fails on the unmutated tree kills nothing
    if fails(sorted({t for m in chosen for t in m.tests})):
        print("the named tests fail without a mutant")
        return 1
    status = 0
    for mutant in chosen:
        start = time.perf_counter()
        dead = fails(mutant.tests, mutant)
        if dead:
            verdict = "killed" if mutant.survivor is None else "killed, unmark"
        else:
            verdict = "SURVIVED" if mutant.survivor is None else f"survived ({mutant.survivor})"
        status |= dead == (mutant.survivor is not None)
        print(f"{verdict:<24} {time.perf_counter() - start:5.1f} s  {mutant.name}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
