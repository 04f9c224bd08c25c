"""The suite's pytest settings report a failing property test as a failure."""

import subprocess
import sys

from _util import SRC

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 3
"""


def test_failing_hypothesis_test_shows_its_falsifying_example(tmp_path):
    # warnings are errors (pyproject.toml); one raised inside hypothesis's
    # report hook would crash the run with an INTERNALERROR (exit 3)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(SRC.parent / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
