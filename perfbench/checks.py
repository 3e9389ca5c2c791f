"""Output checks computed apart from the program under test.

Every checker raises CheckFailed on a wrong answer. Matching is recounted
with networkx's Hopcroft-Karp over edges found by brute-force distances, so
no check shares the KD-tree or the scipy matcher the program uses.
"""

import math

import networkx as nx
import numpy as np

FD_STEP = 1e-5
GRADCHECK_LIMIT = 1e-4   # the limit `crispedge gradcheck` applies
INFER_ATOL = 1e-9


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# training


def check_loss_trace(loss_trace, kappa, tau):
    if not loss_trace or not all(math.isfinite(v) for v in loss_trace):
        raise CheckFailed(f"loss trace is not finite: {loss_trace}")
    if not loss_trace[-1] < loss_trace[0]:
        raise CheckFailed(f"last epoch loss {loss_trace[-1]} is not below "
                          f"the first epoch's {loss_trace[0]}")
    for name, v in (("kappa", kappa), ("tau", tau)):
        if not (math.isfinite(v) and v > 0.0):
            raise CheckFailed(f"{name} = {v} is not finite and positive")


def central_difference(f, flat, i, step=FD_STEP):
    keep = flat[i]
    flat[i] = keep + step
    up = f()
    flat[i] = keep - step
    down = f()
    flat[i] = keep
    return (up - down) / (2 * step)


def kinked(states, flat, i, step=FD_STEP):
    """True when ``states()`` (say, the sign of every ReLU input) differs
    between ``flat[i] + step`` and ``flat[i] - step``."""
    keep = flat[i]
    flat[i] = keep + step
    up = states()
    flat[i] = keep - step
    down = states()
    flat[i] = keep
    return any(not np.array_equal(a, b) for a, b in zip(up, down))


def check_gradients(pairs, limit=GRADCHECK_LIMIT):
    """``pairs`` holds (label, analytic, numeric) triples."""
    for label, analytic, numeric in pairs:
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        if not err <= limit:
            raise CheckFailed(f"gradient {label}: backward {analytic!r} vs finite "
                              f"difference {numeric!r}, relative error {err:.3g} > {limit}")


# ---------------------------------------------------------------------------
# scoring


def max_matching(det_mask, gt_mask, tol_px):
    """Maximum number of one-to-one (detected, ground-truth) pixel pairs no
    farther apart than ``tol_px``."""
    det = np.argwhere(det_mask)
    gt = np.argwhere(gt_mask)
    if len(det) == 0 or len(gt) == 0:
        return 0
    graph = nx.Graph()
    graph.add_nodes_from(range(len(det)))
    for lo in range(0, len(det), 512):
        d2 = ((det[lo:lo + 512, None, :] - gt[None, :, :]) ** 2).sum(axis=-1)
        rows, cols = np.nonzero(d2 <= tol_px * tol_px)
        graph.add_edges_from(zip((rows + lo).tolist(), (cols + len(det)).tolist()))
    matching = nx.bipartite.hopcroft_karp_matching(graph, top_nodes=range(len(det)))
    return sum(1 for u in matching if u < len(det))


def recount(detections, annotator_maps, tol_px):
    """Per-image recount at one threshold and criterion: the detected pixel
    count and each annotator's matched and total ground-truth counts."""
    return {
        "detected": int(np.count_nonzero(detections)),
        "matched": [max_matching(detections, g > 0.5, tol_px) for g in annotator_maps],
        "gt": [int(np.count_nonzero(g > 0.5)) for g in annotator_maps],
    }


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_threshold(criterion, t, precision, recall, per_image, rtol):
    """Recall must equal the recount; precision must lie between the best
    single annotator's share and the summed share of matched detections."""
    detected = sum(c["detected"] for c in per_image)
    gt = sum(sum(c["gt"]) for c in per_image)
    matched = sum(sum(c["matched"]) for c in per_image)
    want = matched / gt if gt else 1.0
    if not _close(recall, want, rtol):
        raise CheckFailed(f"{criterion} t={t}: recall {recall!r}, recount gives "
                          f"{matched}/{gt} = {want!r}")
    if detected:
        lo = sum(max(c["matched"]) for c in per_image) / detected
        hi = min(1.0, matched / detected)
        if not (lo * (1 - rtol) <= precision <= hi * (1 + rtol)):
            raise CheckFailed(f"{criterion} t={t}: precision {precision!r} outside "
                              f"[{lo!r}, {hi!r}]")


def check_curve_shape(criterion, curve):
    """Detections only shrink as the threshold rises, so recall cannot grow."""
    rows = sorted(curve, key=lambda row: row[0])
    for (t0, _, r0, _), (t1, _, r1, _) in zip(rows, rows[1:]):
        if r1 > r0:
            raise CheckFailed(f"{criterion}: recall rises from {r0} at t={t0} to {r1} at t={t1}")


def check_ods_order(ods_c, ods_l):
    """A quarter tolerance can only lose matches."""
    if not ods_l <= ods_c:
        raise CheckFailed(f"ODS-L {ods_l} exceeds ODS-C {ods_c}")


def check_self_scores(scores):
    """``scores`` maps criterion -> (ods, ois, ap) for an annotator's own map
    scored against that annotator alone."""
    for criterion, triple in scores.items():
        if any(v != 1.0 for v in triple):
            raise CheckFailed(f"{criterion}: self-score (ods, ois, ap) = {triple}, want all 1")


# ---------------------------------------------------------------------------
# inference


def check_infer(pred, expected):
    """``expected`` is the mean of the single-scale predictions resized by the
    scalar-loop oracle."""
    pred = np.asarray(pred)
    if pred.shape != expected.shape:
        raise CheckFailed(f"prediction shape {pred.shape}, input shape {expected.shape}")
    if not np.all(np.isfinite(pred)):
        raise CheckFailed("prediction has non-finite values")
    if pred.min() < 0.0 or pred.max() > 1.0:
        raise CheckFailed(f"prediction range [{pred.min()}, {pred.max()}] leaves [0, 1]")
    err = float(np.max(np.abs(pred - expected)))
    if not err <= INFER_ATOL:
        raise CheckFailed(f"prediction differs from the oracle multiscale mean by {err:.3g}")
