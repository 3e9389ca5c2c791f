"""The demo scripts run to completion against the package sources."""

import pytest


@pytest.mark.parametrize("name", [
    "benchmark_walkthrough.py", "gradient_audit.py", "losses_tour.py", "network_walkthrough.py",
    pytest.param("train_small.py", marks=pytest.mark.slow),
])
def test_demo_exits_cleanly(run_python, name):
    proc = run_python(f"demos/{name}", timeout=600)
    assert proc.returncode == 0, proc.stderr
