"""Every example script runs to completion, with deprecations as errors.

The examples are the documented entry points into the library, and several
double as checks (``quickstart`` and ``csv_lake_discovery`` assert that the
batched engine equals the sequential oracle).  Each runs in its own
interpreter with ``-W error::DeprecationWarning``, so an example that calls a
deprecated API fails here instead of printing a warning nobody reads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

EXAMPLES = [
    "quickstart",
    "csv_lake_discovery",
    "join_path_coverage",
    "compare_with_baselines",
    "union_search_open_data",
]


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_cleanly(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    script = ROOT / "examples" / f"{name}.py"
    completed = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-4000:]
