"""The pytest settings of ``pyproject.toml`` report a failing property test as
a failure and go on with the next test.

Every warning is an error there.  Hypothesis reports a failing ``@given``
test through libcst, whose import warns that ``mypy_extensions.TypedDict`` is
deprecated; as an error, that warning ended the session with an internal
error and skipped every later test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after():
    pass
"""


def test_a_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    path = tmp_path / "test_failing_property.py"
    path.write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(path),
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
