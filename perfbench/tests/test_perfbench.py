"""Tests of the benchmark itself: its checkers reject wrong answers, its
deadline worker survives a stalled call, its replays match the library, and
BENCHMARK.json declares what run.py prints.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import checks
import mirrors
import workloads
from deadline import DeadlineWorker, WorkerError
from oracles import max_matching_loops
from spans import Tracer

from crispedge import build_refine_net, default_topology, gen_synthetic
from crispedge.tensorcore import Tensor

from conftest import BENCH, ROOT


# ---------------------------------------------------------------------------
# checkers


def _line_case():
    det = np.zeros((12, 12), dtype=bool)
    gt = np.zeros((12, 12))
    det[3, 1:9] = True
    det[8, 1:4] = True
    gt[4, 2:11] = 1.0
    return det, gt


def test_max_matching_agrees_with_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        det = rng.random((10, 10)) < 0.2
        gt = rng.random((10, 10)) < 0.2
        tol = float(rng.uniform(0.5, 2.5))
        want = max_matching_loops([tuple(p) for p in np.argwhere(det)],
                                  [tuple(p) for p in np.argwhere(gt)], tol)
        assert checks.max_matching(det, gt, tol) == want


def test_recall_off_by_one_pixel_is_rejected():
    det, gt = _line_case()
    per_image = [checks.recount(det, [gt], 1.5)]
    matched, total = per_image[0]["matched"][0], per_image[0]["gt"][0]
    precision = matched / per_image[0]["detected"]
    checks.check_threshold("correctness", 0.5, precision, matched / total, per_image, 1e-12)
    with pytest.raises(checks.CheckFailed, match="recall"):
        checks.check_threshold("correctness", 0.5, precision, (matched + 1) / total,
                               per_image, 1e-12)
    with pytest.raises(checks.CheckFailed, match="recall"):
        checks.check_threshold("correctness", 0.5, precision, (matched - 1) / total,
                               per_image, 1e-5)


def test_precision_outside_its_bounds_is_rejected():
    det, gt = _line_case()
    per_image = [checks.recount(det, [gt, gt], 1.5)]
    c = per_image[0]
    recall = sum(c["matched"]) / sum(c["gt"])
    checks.check_threshold("thickness", 0.5, max(c["matched"]) / c["detected"], recall,
                           per_image, 1e-12)
    too_low = (max(c["matched"]) - 1) / c["detected"]
    with pytest.raises(checks.CheckFailed, match="precision"):
        checks.check_threshold("thickness", 0.5, too_low, recall, per_image, 1e-12)


def test_rising_recall_and_ods_order_are_rejected():
    good = [(0.25, 0.5, 0.9, 0.6), (0.5, 0.6, 0.8, 0.7), (0.75, 0.7, 0.8, 0.7)]
    checks.check_curve_shape("correctness", good)
    bad = [(0.25, 0.5, 0.7, 0.6), (0.5, 0.6, 0.8, 0.7)]
    with pytest.raises(checks.CheckFailed, match="recall rises"):
        checks.check_curve_shape("correctness", bad)
    checks.check_ods_order(0.8, 0.6)
    with pytest.raises(checks.CheckFailed, match="ODS-L"):
        checks.check_ods_order(0.6, 0.8)


def test_self_scores_below_one_are_rejected():
    checks.check_self_scores({"correctness": (1.0, 1.0, 1.0)})
    with pytest.raises(checks.CheckFailed, match="self-score"):
        checks.check_self_scores({"thickness": (1.0, 0.99, 1.0)})


def test_rising_or_non_finite_loss_is_rejected():
    checks.check_loss_trace([1.9, 1.8, 1.7], 1.1, 1.2)
    with pytest.raises(checks.CheckFailed, match="not below"):
        checks.check_loss_trace([1.9, 1.8, 1.95], 1.1, 1.2)
    with pytest.raises(checks.CheckFailed, match="not finite"):
        checks.check_loss_trace([1.9, math.nan, 1.7], 1.1, 1.2)
    with pytest.raises(checks.CheckFailed, match="kappa"):
        checks.check_loss_trace([1.9, 1.7], math.inf, 1.2)
    with pytest.raises(checks.CheckFailed, match="tau"):
        checks.check_loss_trace([1.9, 1.7], 1.1, 0.0)


def test_wrong_gradient_is_rejected():
    x = np.array([0.3, -1.2])

    def f():
        return float(np.sum(x ** 3))

    numeric = checks.central_difference(f, x, 1)
    checks.check_gradients([("x1", 3 * x[1] ** 2, numeric)])
    with pytest.raises(checks.CheckFailed, match="x1"):
        checks.check_gradients([("x1", 3 * x[1] ** 2 * (1 + 1e-3), numeric)])


def test_kink_within_the_step_is_detected():
    x = np.array([2e-6, 1.0])

    def states():
        return [x > 0.0]

    assert checks.kinked(states, x, 0)
    assert not checks.kinked(states, x, 1)
    assert list(x) == [2e-6, 1.0]


def test_map_outside_unit_interval_is_rejected():
    expected = np.full((4, 5), 0.5)
    checks.check_infer(expected.copy(), expected)
    outside = expected.copy()
    outside[1, 2] = 1.2
    with pytest.raises(checks.CheckFailed, match=r"leaves \[0, 1\]"):
        checks.check_infer(outside, expected)
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_infer(np.where(outside > 1, np.nan, outside), expected)
    with pytest.raises(checks.CheckFailed, match="shape"):
        checks.check_infer(expected[:3], expected)
    with pytest.raises(checks.CheckFailed, match="oracle"):
        checks.check_infer(expected + 1e-6, expected)


# ---------------------------------------------------------------------------
# deadline worker


def test_deadline_worker_counts_a_stalled_call_and_carries_on():
    with DeadlineWorker(deadline_s=1.0) as worker:
        assert worker.call(math.sqrt, 16.0) == (True, 4.0)
        first = worker._proc
        t0 = time.perf_counter()
        assert worker.call(time.sleep, 60.0) == (False, None)
        assert time.perf_counter() - t0 < 30.0
        assert not first.is_alive()
        assert worker.call(math.sqrt, 9.0) == (True, 3.0)
        second = worker._proc
    assert not second.is_alive()
    assert worker.peak_rss_kb > 0


def _children():
    pids = set()
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/children", encoding="ascii") as fh:
            pids.update(int(p) for p in fh.read().split())
    return pids


def test_deadline_worker_leaves_no_process_behind():
    before = _children()
    with DeadlineWorker(deadline_s=1.0) as worker:
        assert worker.call(time.sleep, 60.0) == (False, None)
        assert worker.call(math.sqrt, 4.0) == (True, 2.0)
        assert _children() - before   # the worker and the resource tracker
    assert _children() == before


def test_deadline_worker_dies_with_a_killed_parent():
    script = ("import sys, time; sys.path[:0] = sys.argv[1:]\n"
              "from deadline import DeadlineWorker\n"
              "w = DeadlineWorker(60.0); w.start(); print(w._proc.pid, flush=True)\n"
              "w.call(time.sleep, 600.0)\n")
    parent = subprocess.Popen([sys.executable, "-c", script, BENCH, os.path.join(ROOT, "src"),
                               os.path.join(ROOT, "tests")], stdout=subprocess.PIPE, text=True)
    try:
        pid = int(parent.stdout.readline())
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
    deadline = time.monotonic() + 10.0
    while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            if fh.read().rsplit(")", 1)[1].split()[0] == "Z":   # ended, not yet reaped
                break
        time.sleep(0.05)
    else:
        assert not os.path.exists(f"/proc/{pid}")


def test_deadline_worker_reports_errors():
    with DeadlineWorker(deadline_s=10.0) as worker:
        with pytest.raises(WorkerError, match="ValueError"):
            worker.call(math.sqrt, -1.0)
        assert worker.call(math.sqrt, 1.0) == (True, 1.0)


# ---------------------------------------------------------------------------
# replays and the declared metrics


def test_forward_replay_equals_the_network():
    net = build_refine_net(default_topology(), seed=3)
    x = Tensor(np.random.default_rng(1).random((2, 1, 24, 24)))
    tracer = Tracer()
    replay = mirrors.forward(tracer, net, x)
    assert np.array_equal(replay.data, net.forward(x).data)
    assert any(s["name"].startswith("tensorcore.conv2d_fwd.") for s in tracer.spans)
    assert all(s["end"] >= s["start"] for s in tracer.spans)


def test_eval_replay_counts_match_eval_criteria():
    from crispedge import eval_criteria

    sample = gen_synthetic(1, (32, 32), 2, 1.0, 4)[0]
    p = workloads.thick_map(sample)
    report = eval_criteria([p], [sample.annotations], 0.05, n_thresholds=5)
    stats = mirrors.eval_image(Tracer(), p, sample.annotations, 0.05,
                               [row[0] for row in report.correctness.curve])
    total_gt = int(sample.annotations.maps.sum())
    for res in report.results():
        got = [m / total_gt for m in stats[res.scores.criterion]["matched"]]
        assert got == [row[2] for row in res.curve]


def test_benchmark_json_declares_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "peak_rss_mb", "items_per_s"}
    declared = {m["name"] for m in spec["per_layer"]}
    for shape in workloads.conv_shapes():
        assert f"tensorcore.conv2d_fwd_ms.{shape}" in declared
        assert f"tensorcore.conv2d_bwd_ms.{shape}" in declared
    shapes = {n.split(".", 2)[2] for n in declared if n.startswith("tensorcore.conv2d_fwd_ms.")}
    assert shapes == set(workloads.conv_shapes())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-64",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
