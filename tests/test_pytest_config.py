"""The repository's pytest settings report a failing property test as an
ordinary failure.

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


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "PASSED test_property.py::test_after_the_failure" in out.stdout
    # the filter is narrow: any other deprecation is still an error
    assert "FAILED test_property.py::test_other_deprecations_still_fail" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
