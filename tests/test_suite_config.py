"""The suite's own pytest configuration, run on a throwaway test file."""
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_is_reported_not_fatal(pytester):
    # Warnings are errors here.  A failing @given test makes hypothesis
    # import libcst for its report, and that import warns; the session must
    # still report the failure and finish.
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_property.py")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    result.assert_outcomes(failed=1)
