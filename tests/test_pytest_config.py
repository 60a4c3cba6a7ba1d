"""The repository's pytest settings report a failing property test as an
ordinary failure, and fail collection on an unregistered marker.

``filterwarnings = ["error"]`` turns every warning into an exception, also
inside pytest plugins.  When a ``@given`` test fails, hypothesis's plugin
imports its patch writer, whose dependencies may warn on import; that must
not crash the session and skip the tests after the failing one.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_after_the_failure():
    pass


def test_other_deprecations_still_fail():
    warnings.warn("some other API is deprecated", DeprecationWarning)
'''


UNREGISTERED_MARKER = '''
import pytest


@pytest.mark.not_registered
def test_marked():
    pass
'''


def run_pytest(tmp_path, name: str, text: str) -> subprocess.CompletedProcess:
    """Run pytest under the repository's settings on one test file."""
    (tmp_path / name).write_text(text)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA", name],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    out = run_pytest(tmp_path, "test_property.py", FAILING_PROPERTY)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "PASSED test_property.py::test_after_the_failure" in out.stdout
    # the filter is narrow: any other deprecation is still an error
    assert "FAILED test_property.py::test_other_deprecations_still_fail" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr


def test_an_unregistered_marker_fails_collection(tmp_path):
    out = run_pytest(tmp_path, "test_marker.py", UNREGISTERED_MARKER)
    assert out.returncode == 2, out.stdout + out.stderr
    # strict_markers says so; without it, filterwarnings would still fail
    # collection, on the unknown-mark warning
    assert "'not_registered' not found in `markers` configuration option" in out.stdout
