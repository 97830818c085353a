"""The pytest settings in pyproject.toml turn every warning into an error. A
failing property test must still print its falsifying example and let the
next test run: Hypothesis's pytest plugin touches the deprecated
``mypy_extensions.TypedDict`` while it reports a failure."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_property_test_reports_its_example_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert "Falsifying example" in proc.stdout, proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), proc.stdout
