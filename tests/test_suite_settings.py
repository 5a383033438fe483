"""The pytest settings in pyproject.toml, run on a scratch test file.

Warnings are errors, apart from the one that Hypothesis's own reporting
raises: a failing Hypothesis test must be reported like any other failure,
not abort the run and hide the failures after it.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_TESTS = """
import warnings

from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None, derandomize=True)
def test_given_fails(n):
    assert n < 10


def test_other_deprecation_fails():
    warnings.warn("some other API is deprecated", DeprecationWarning)
"""


def test_a_falsifying_example_does_not_abort_the_run(tmp_path):
    # On a falsifying example Hypothesis imports libcst to write a patch,
    # and libcst builds a deprecated mypy_extensions.TypedDict.  Under
    # filterwarnings = ["error"] alone that warning ended the run with
    # INTERNALERROR (exit 3): "1 failed", the second test never ran, and no
    # failure was printed.  Any other DeprecationWarning still fails its test.
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "2 failed" in out, out
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example: test_given_fails(" in out, out
