"""The demo scripts run to completion against the package sources."""

import os
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "benchmark_walkthrough.py", "gradient_audit.py", "losses_tour.py", "network_walkthrough.py",
    pytest.param("train_small.py", marks=pytest.mark.slow),
])
def test_demo_exits_cleanly(run_python, name):
    proc = run_python(f"demos/{name}", timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_cli_pipeline_demo_exits_cleanly(tmp_path):
    # the script works in a mktemp directory, which TMPDIR puts under tmp_path
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(["sh", "demos/cli_pipeline.sh"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
