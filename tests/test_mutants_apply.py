"""The mutant list in ``tests/mutants.py`` still applies to the code it mutates.

Only the cheap half of the matrix: each mutant's old text occurs exactly
once in its file and differs from its new text, and each test file named to
kill it exists.  Running the matrix itself is ``python tests/mutants.py``.
"""
import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_applies_exactly_once(mutant):
    assert mutant.path.startswith("src/bandit_debias/") and mutant.old != mutant.new
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    for test in mutant.tests:
        assert (ROOT / test.split("::")[0]).is_file(), test
