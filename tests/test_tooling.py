"""The test run itself: a falsified hypothesis test must fail as a test,
with its falsifying example, also when warnings are errors."""

from __future__ import annotations

import importlib.util

import pytest


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None,
                    reason="without libcst, hypothesis writes no patch on a "
                           "failure, and the warning cannot arise")
def test_falsified_example_is_reported_with_warnings_as_errors(pytester):
    """Exit code 1 (tests failed), not 3 (internal error): hypothesis's
    patch writer is imported on a failure, and libcst's import warning
    must not end the run (see ``conftest.py``)."""
    pytester.makepyfile(test_falsified="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_always_fails(x):
            assert x is None
    """)
    result = pytester.runpytest("-W", "error", "-p", "no:cacheprovider")
    assert result.ret == pytest.ExitCode.TESTS_FAILED
    result.stdout.fnmatch_lines(["*Falsifying example*"])
