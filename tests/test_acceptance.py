"""Acceptance suite: one numbered test per release gate.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line per
check.  The gates cover exact formula agreement with scalar-loop oracles,
finite-difference gradient audits, the soft-dice lower bound, adaptive-weight
closed forms and stationarity, benchmark tolerance arithmetic, matching
equivalence with an exhaustive oracle, benchmark sanity properties, the toy
end-to-end training floors, ablation orderings, and CLI determinism.

The toy-training gates (09, 10) retrain four loss modes on the standard
synthetic set and take several minutes; everything else is fast.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from crispedge import tensorcore as tc
from crispedge.cli import run
from crispedge.gradcheck import OP_CASES, op_error
from crispedge.evalbench import (
    eval_criteria,
    match_boundaries,
    nms_thin,
    tolerance_pixels,
)
from crispedge.losses import (
    AdaptiveLossState,
    AnnotationSet,
    ConsensusWeightMap,
    adaptive_loss,
    batch_weight_maps,
    soft_ce,
    soft_dice,
)
from crispedge.network import build_refine_net, default_topology
from crispedge.tensorcore import OptimizerConfig, Tensor, backward
from crispedge.trainer import TrainConfig, toy_dataset, train

from oracles import (
    fd_gradient,
    max_matching_loops,
    rel_err,
    soft_ce_loops,
    soft_dice_loops,
)

FD_LIMIT = 1e-4

# Score floors for the end-to-end toy run (gate 09).  Frozen from the first
# verified run of this exact configuration (toy_dataset() defaults, loss mode
# "sce+sd" at fixed 1:1, seed 0), which measured ODS-C 0.8816 and
# ODS-L 0.8688; the margin below the measured values absorbs cross-platform
# differences in BLAS reduction order.  Do not retune these to make a
# regression pass.
TOY_ODS_C_FLOOR = 0.87
TOY_ODS_L_FLOOR = 0.75
TOY_TIME_BUDGET_S = 900.0


def _random_pair(rng, lo=0.02, hi=0.98):
    h = int(rng.integers(4, 11))
    w = int(rng.integers(4, 11))
    p = rng.uniform(lo, hi, (h, w))
    wmap = rng.uniform(0.0, 1.0, (h, w))
    return p, wmap


def test_criterion_01_losses_match_scalar_oracles():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    for _ in range(100):
        p, wm = _random_pair(rng)
        p4 = Tensor(p[None, None])
        cw = ConsensusWeightMap.from_array(wm)

        pairs = [
            (soft_ce(p4, cw).item(), soft_ce_loops(p, wm, 1e-6)),
            (soft_dice(p4, cw).item(), soft_dice_loops(p, wm, 1e-6)),
        ]
        for got, want in pairs:
            assert rel_err(got, want) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[criterion 01] 100 pairs x 2 losses vs scalar loops, "
          f"rel < 1e-12, {elapsed:.2f}s")


def _composite_gradient_error(seed):
    """Worst relative FD error over sampled coordinates of every parameter of
    the full default network driven through the adaptive loss.

    Finite differences are only meaningful where the loss is smooth, so each
    probe records the relu masks of its three evaluation points and the
    coordinate is redrawn whenever a mask flips inside the step.  With the
    masks pinned the loss is analytic in the coordinate and the central
    difference is trusted; a wrong analytic gradient still fails because mask
    equality says nothing about the gradient value itself.
    """
    import crispedge.network as network_mod

    net = build_refine_net(default_topology(), seed=seed)
    rng = np.random.default_rng([seed, 7])
    image = Tensor(rng.random((1, 1, 16, 16)))
    annm = (rng.random((16, 16)) > 0.8).astype(float)
    annm[6, 2:14] = 1.0
    wmap = batch_weight_maps([AnnotationSet([annm])])
    awl = AdaptiveLossState()
    params = net.params() + awl.params()

    masks = []
    plain_relu = network_mod.relu

    def recording_relu(x):
        masks.append((x.data > 0).tobytes())
        return plain_relu(x)

    def f():
        masks.clear()
        value = adaptive_loss(net.forward(image), wmap, awl).item()
        return value, b"".join(masks)

    backward(adaptive_loss(net.forward(image), wmap, awl))
    grads = [p.grad.copy() for p in params]
    worst = 0.0
    step = 1e-5
    coord_rng = np.random.default_rng([seed, 8])
    network_mod.relu = recording_relu
    try:
        _, mask0 = f()
        for p, g in zip(params, grads):
            flat = p.data.reshape(-1)
            gflat = g.ravel()
            scored = 0
            for i in coord_rng.permutation(flat.size):
                if scored == min(2, flat.size):
                    break
                keep = flat[i]
                flat[i] = keep + step
                hi, mask_hi = f()
                flat[i] = keep - step
                lo, mask_lo = f()
                flat[i] = keep
                if mask_hi != mask0 or mask_lo != mask0:
                    continue
                # np.maximum keeps a NaN error; max(0.0, nan) returns 0.0
                worst = float(np.maximum(worst, rel_err(gflat[i], (hi - lo) / (2 * step))))
                scored += 1
    finally:
        network_mod.relu = plain_relu
    return worst


def test_criterion_02_gradient_suite_over_twenty_seeds():
    t0 = time.perf_counter()
    worst = 0.0
    worst_name = ""
    for seed in range(20):
        for name, make_inputs, forward in OP_CASES:
            err = op_error(seed, 0, make_inputs, forward)
            if math.isnan(err) or err > worst:  # `err > worst` alone skips NaN
                worst, worst_name = err, name
        err = _composite_gradient_error(seed)
        if math.isnan(err) or err > worst:
            worst, worst_name = err, "composite"
    elapsed = time.perf_counter() - t0
    assert worst < FD_LIMIT, f"{worst_name} fd error {worst}"
    assert elapsed < 120.0
    print(f"[criterion 02] 20 seeds, worst {worst_name} {worst:.3g} "
          f"(< {FD_LIMIT}), {elapsed:.1f}s")


def test_criterion_03_soft_dice_lower_bound():
    rng = np.random.default_rng(17)
    t0 = time.perf_counter()
    for _ in range(10_000):
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        p = rng.uniform(0.0, 1.0, (h, w))
        wm = rng.uniform(0.0, 1.0, (h, w))
        val = soft_dice(Tensor(p[None, None]), ConsensusWeightMap.from_array(wm)).item()
        assert val >= 1.0 - 1e-12
        assert val > 1.0 + 1e-9  # distinct random maps never sit at the floor
    for _ in range(200):
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        p = rng.uniform(0.0, 1.0, (h, w))
        val = soft_dice(Tensor(p[None, None]), ConsensusWeightMap.from_array(p)).item()
        assert abs(val - 1.0) < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[criterion 03] 10,000 pairs >= 1, equality iff p == W, {elapsed:.2f}s")


def test_criterion_04_adaptive_loss_closed_form_and_gradient():
    rng = np.random.default_rng(7)
    p = rng.uniform(0.05, 0.95, (6, 9))
    wm = rng.uniform(0.0, 1.0, (6, 9))
    cw = ConsensusWeightMap.from_array(wm)
    p4 = Tensor(p[None, None])
    sce_v = soft_ce(p4, cw).item()
    sd_v = soft_dice(p4, cw).item()

    awl = AdaptiveLossState()
    loss = adaptive_loss(Tensor(p[None, None]), cw, awl)
    expected = (sce_v + 0.1 * sd_v) + math.log(2.0)
    assert abs(loss.item() - expected) < 1e-12

    # at the identity weights the scale gradient has a closed form
    backward(loss)
    analytic = float(awl.log_kappa.grad.ravel()[0])
    closed = -2.0 * sce_v + 0.5
    assert abs(analytic - closed) < 1e-12

    awl2 = AdaptiveLossState()

    def f():
        return adaptive_loss(Tensor(p[None, None]), cw, awl2).item()

    numeric = fd_gradient(f, awl2.log_kappa.data)[0]
    assert rel_err(closed, numeric) < 1e-6
    print(f"[criterion 04] loss = SCE + 0.1 SD + log 2 ({loss.item():.6f}); "
          f"d/dlog-kappa {analytic:.6f} == -2 SCE + 1/2, fd agrees")


def test_criterion_05_adaptive_weights_reach_stationarity():
    opt = OptimizerConfig(learning_rate=0.05, momentum=0.9, weight_decay=0.0)
    for sce0, sd0 in [(0.7, 1.4), (2.0, 1.05), (0.2, 3.0)]:
        awl = AdaptiveLossState()
        params = awl.params()
        steps = None
        for step in range(1, 10_001):
            inv_k2 = tc.exp(tc.mul(awl.log_kappa, -2.0))
            inv_t2 = tc.exp(tc.mul(awl.log_tau, -2.0))
            barrier = tc.log(tc.add(tc.mul(tc.exp(awl.log_kappa),
                                           tc.exp(awl.log_tau)), 1.0))
            loss = tc.add(tc.add(tc.mul(inv_k2, sce0),
                                 tc.mul(tc.mul(inv_t2, sd0), 0.1)), barrier)
            backward(loss)
            tc.sgd_step(params, opt)
            k, t = awl.kappa, awl.tau
            r1 = abs(2.0 * sce0 / k ** 3 - t / (1.0 + k * t))
            r2 = abs(2.0 * 0.1 * sd0 / t ** 3 - k / (1.0 + k * t))
            if r1 < 1e-3 and r2 < 1e-3:
                steps = step
                break
        assert steps is not None, f"no stationary point for ({sce0}, {sd0})"
        print(f"[criterion 05] frozen ({sce0}, {sd0}): kappa={awl.kappa:.4f} "
              f"tau={awl.tau:.4f} residuals < 1e-3 in {steps} steps")


def test_criterion_06_tolerance_arithmetic():
    d0 = tolerance_pixels(481, 321, 0.0075)
    assert 4.30 <= d0 <= 4.40
    assert 0.011 / 4 == 0.00275
    assert tolerance_pixels(481, 321, 0.011 / 4) == tolerance_pixels(481, 321, 0.00275)
    print(f"[criterion 06] d0(481x321, 0.0075) = {d0:.4f} px; 0.011/4 == 0.00275")


def test_criterion_07_matching_equals_exhaustive_oracle():
    rng = np.random.default_rng(23)
    t0 = time.perf_counter()
    for trial in range(500):
        h = int(rng.integers(3, 13))
        w = int(rng.integers(3, 13))
        density = rng.uniform(0.08, 0.3)
        a = (rng.random((h, w)) < density).astype(float)
        b = (rng.random((h, w)) < density).astype(float)
        pa, pb = np.argwhere(a), np.argwhere(b)
        for tol in (1.0, 1.5, 3.0):
            got = match_boundaries(a, b, tol)[0]
            want = max_matching_loops(pa, pb, tol)
            assert got == want, f"trial {trial} tol {tol}: {got} != {want}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"[criterion 07] 500 pairs x tolerances (1, 1.5, 3): exact, {elapsed:.1f}s")


def _ring_outline(n, radius):
    yy, xx = np.mgrid[:n, :n]
    rr = np.hypot(yy - n / 2, xx - n / 2)
    band = ((rr > radius) & (rr < radius + 1.4)).astype(float)
    return np.where(nms_thin(band) > 0, 1.0, 0.0)


def test_criterion_08_benchmark_sanity():
    # perfect thin detections score 1 everywhere, single- and multi-annotator
    preds = [_ring_outline(24, r) for r in (4.0, 5.0, 6.0, 7.0)]
    report = eval_criteria(preds, [AnnotationSet([p]) for p in preds],
                           base_fraction=0.05)
    for res in report.results():
        assert res.scores.ods == 1.0
        assert res.scores.ois == 1.0
        assert res.scores.ap == 1.0
    twin = eval_criteria([preds[0]], [AnnotationSet([preds[0], preds[0]])],
                         base_fraction=0.05)
    for res in twin.results():
        assert res.scores.ods == 1.0

    # the tighter tolerance can only hurt: ODS-L <= ODS-C on random data
    t0 = time.perf_counter()
    for trial in range(1000):
        rng = np.random.default_rng([31, trial])
        p = gaussian_filter(rng.random((16, 16)), 1.0)
        p = (p - p.min()) / (p.max() - p.min())
        a = (rng.random((16, 16)) > 0.85).astype(float)
        if not a.any():
            a[3, 3] = 1.0
        rep = eval_criteria([p], [AnnotationSet([a])], base_fraction=0.05,
                            n_thresholds=9)
        assert rep.localness.scores.ods <= rep.correctness.scores.ods + 1e-12
    elapsed = time.perf_counter() - t0
    print(f"[criterion 08] perfect detections all 1.0; "
          f"ODS-L <= ODS-C on 1000 trials, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def toy_runs():
    """Train the four loss modes on the standard toy set, timing each."""
    data = toy_dataset()
    out = {}
    for mode in ("awl", "sce", "sce+sd", "sd"):
        cfg = TrainConfig(loss_mode=mode, seed=0)
        t0 = time.perf_counter()
        _, report = train(data, config=cfg)
        out[mode] = (report, time.perf_counter() - t0)
    return out


@pytest.mark.slow
def test_criterion_09_toy_training_reaches_frozen_floors(toy_runs):
    report, seconds = toy_runs["sce+sd"]
    ods_c = report.scores.correctness.scores.ods
    ods_l = report.scores.localness.scores.ods
    assert ods_c >= TOY_ODS_C_FLOOR, f"ODS-C {ods_c:.4f} under floor"
    assert ods_l >= TOY_ODS_L_FLOOR, f"ODS-L {ods_l:.4f} under floor"
    assert seconds < TOY_TIME_BUDGET_S
    print(f"[criterion 09] holdout ODS-C {ods_c:.4f} (floor {TOY_ODS_C_FLOOR}), "
          f"ODS-L {ods_l:.4f} (floor {TOY_ODS_L_FLOOR}), {seconds:.0f}s")


@pytest.mark.slow
def test_criterion_10_ablation_orderings_hold(toy_runs):
    ods_t = {m: r.scores.thickness.scores.ods for m, (r, _) in toy_runs.items()}
    ods_c = {m: r.scores.correctness.scores.ods for m, (r, _) in toy_runs.items()}
    assert ods_t["awl"] >= ods_t["sce"], (
        f"adaptive {ods_t['awl']:.4f} < plain cross-entropy {ods_t['sce']:.4f} in ODS-T")
    assert ods_c["sce+sd"] >= ods_c["sd"], (
        f"fixed 1:1 {ods_c['sce+sd']:.4f} < dice-only {ods_c['sd']:.4f} in ODS-C")
    print(f"[criterion 10] ODS-T awl {ods_t['awl']:.4f} >= sce {ods_t['sce']:.4f}; "
          f"ODS-C sce+sd {ods_c['sce+sd']:.4f} >= sd {ods_c['sd']:.4f}")


def _invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _tree_bytes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for n in sorted(names):
            p = os.path.join(dirpath, n)
            out[os.path.relpath(p, root)] = Path(p).read_bytes()
    return out


def test_criterion_11_cli_determinism(tmp_path, capsys):
    root = str(tmp_path)

    gen_args = ["gen", "--count", "6", "--height", "28", "--width", "28",
                "--annotators", "2", "--jitter", "0.5", "--seed", "3"]
    g1, g2 = os.path.join(root, "g1"), os.path.join(root, "g2")
    assert _invoke(capsys, *gen_args, "--out-dir", g1)[0] == 0
    assert _invoke(capsys, *gen_args, "--out-dir", g2)[0] == 0
    assert _tree_bytes(g1) == _tree_bytes(g2)

    manifest = os.path.join(g1, "manifest.tsv")
    train_args = ["train", "--manifest", manifest, "--epochs", "1",
                  "--batch-size", "4", "--loss-mode", "awl", "--seed", "5"]
    t1, t2 = os.path.join(root, "t1"), os.path.join(root, "t2")
    code, out1, err = _invoke(capsys, *train_args, "--out-dir", t1)
    assert code == 0, err
    _, out2, _ = _invoke(capsys, *train_args, "--out-dir", t2)
    assert _tree_bytes(t1) == _tree_bytes(t2)
    assert out1.replace(t1, "") == out2.replace(t2, "")

    params = os.path.join(t1, "params.crb")
    image = os.path.join(g1, "syn-3-0000.pgm")
    p1, p2 = os.path.join(root, "p1.crb"), os.path.join(root, "p2.crb")
    for dst in (p1, p2):
        assert _invoke(capsys, "infer", "--params", params, "--image", image,
                       "--scales", "0.5,1", "--out", dst)[0] == 0
    assert Path(p1).read_bytes() == Path(p2).read_bytes()

    eval_manifest = os.path.join(root, "eval.tsv")
    anns = ",".join(os.path.join(g1, f"syn-3-0000-ann{j}.pgm") for j in (0, 1))
    with open(eval_manifest, "w") as fh:
        fh.write(f"syn-3-0000\t{p1}\t{anns}\ttest\n")
    e1, e2, e3 = (os.path.join(root, d) for d in ("e1", "e2", "e3"))
    outs = []
    for dst in (e1, e2, e3):
        code, out, err = _invoke(capsys, "eval", "--manifest", eval_manifest,
                                 "--out-dir", dst)
        assert code == 0, err
        outs.append(out.replace(dst, ""))
    assert _tree_bytes(e1) == _tree_bytes(e2) == _tree_bytes(e3)
    assert outs[0] == outs[1] == outs[2]

    _, gc1, _ = _invoke(capsys, "gradcheck", "--seed", "1")
    _, gc2, _ = _invoke(capsys, "gradcheck", "--seed", "1")
    assert gc1 == gc2

    ab_args = ["ablate", "--manifest", manifest, "--modes", "sce,sd",
               "--epochs", "1", "--seed", "0"]
    a1, a2 = os.path.join(root, "a1"), os.path.join(root, "a2")
    assert _invoke(capsys, *ab_args, "--out-dir", a1)[0] == 0
    assert _invoke(capsys, *ab_args, "--out-dir", a2)[0] == 0
    assert _tree_bytes(a1) == _tree_bytes(a2)

    print("[criterion 11] gen/train/infer/eval/gradcheck/ablate byte-identical "
          "across reruns")
