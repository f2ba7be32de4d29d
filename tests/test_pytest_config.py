"""The repository's pytest configuration reports a failing Hypothesis test.

``filterwarnings = ["error"]`` turns every warning into an error, including
warnings raised inside pytest plugins' hooks; one from Hypothesis's report
hook once ended the run in INTERNALERROR, with no falsifying example shown.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TEST = """
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=20)
@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_given_test_shows_its_example(tmp_path):
    (tmp_path / "test_given.py").write_text(FAILING_TEST)
    out = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                          "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
                          "test_given.py"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "Falsifying example" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
