"""A failing hypothesis property reports its example under the suite's conftest.

``tests/conftest.py`` turns every ``DeprecationWarning`` into an error.
Hypothesis prints a falsifying example through ``libcst``, whose import
calls the deprecated ``mypy_extensions.TypedDict``; as an error that ended
the run with an INTERNALERROR (exit code 3) and no example.  This runs a
throwaway failing property, and a test raising a ``DeprecationWarning``
attributed to ``repro``, in a pytest subprocess under the real conftest.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
SRC = TESTS.parent / "src"

THROWAWAY = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x < 10


def test_deprecated_in_repro():
    warnings.warn_explicit(
        "this call is deprecated", DeprecationWarning, "api.py", 1, module="repro.core.api"
    )
'''


def test_a_falsified_property_prints_its_example(tmp_path):
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    # -p conftest loads the suite's conftest.py as a plugin for the
    # throwaway file, which lives outside the tests tree.
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest",
         "test_throwaway.py"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = completed.stdout + completed.stderr
    assert completed.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "x=10" in output
    # A DeprecationWarning from repro still fails its test.
    assert "2 failed" in output
