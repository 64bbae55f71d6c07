"""The committed mutants still apply: a refactor that moves a mutant's old
text, or renames the test that kills it, shows here and not as a mutant
that quietly stopped testing anything (mutants/run.py runs them)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants_run", ROOT / "mutants" / "run.py")
M = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(M)


def test_each_mutant_applies_once_and_names_tests_that_exist():
    assert len(M.MUTANTS) >= 4
    for mutant in M.MUTANTS:
        assert M.occurrences(mutant) == 1, mutant.name
        assert mutant.new != mutant.old and mutant.tests, mutant.name
        for test in mutant.tests:
            path, name = test.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(), test
