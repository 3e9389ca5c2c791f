"""Fixtures shared by the test modules."""

import contextlib
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
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


@dataclass
class Traced:
    held: int = 0   # traced bytes the block allocated and left allocated
    peak: int = 0   # most traced bytes allocated at once inside the block


@pytest.fixture
def traced_peak():
    """``with traced_peak() as t:`` traces the block's allocations with
    tracemalloc; on a normal exit ``t.peak`` and ``t.held`` are set, both
    counted from the block's start. Tracing stops also when the block raises."""

    @contextlib.contextmanager
    def trace():
        traced = Traced()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            yield traced
            traced.held, traced.peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

    return trace
