"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def run_python():
    """Run ``python *args`` in a child process from the repository root with
    ``src`` on ``PYTHONPATH``; returns the completed process, its output
    captured as text. A child that outlives ``timeout`` seconds is killed and
    raises ``subprocess.TimeoutExpired``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(*args, timeout):
        return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)

    return run
