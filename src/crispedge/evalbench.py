"""Boundary-detection scoring: post-processing, tolerance matching, and
precision/recall summaries under three criteria.

A detection is judged three ways from the same probability map: at the
standard tolerance after non-maximum suppression and thinning (correctness),
at a quarter of that tolerance with the same post-processing (localness), and
at the standard tolerance with no post-processing at all (thickness), which
penalizes maps that are only thin because a cleanup pass made them so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.ndimage import gaussian_filter, maximum_filter
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .errors import ContractError, DomainError, ShapeError
from .losses import AnnotationSet


def fmt(x: float) -> str:
    """Fixed 6-significant-digit rendering used by every text output."""
    return f"{x:.6g}"


def as_probability_map(p) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"probability map must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError("probability map has non-finite values")
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise DomainError(f"probabilities must lie in [0, 1], range is [{arr.min()}, {arr.max()}]")
    return arr


def as_boundary_map(b) -> np.ndarray:
    arr = np.asarray(b)
    if arr.ndim != 2:
        raise ShapeError(f"boundary map must be 2-D, got shape {arr.shape}")
    if arr.dtype != bool:
        vals = np.unique(arr)
        if not np.all(np.isin(vals, (0, 1))):
            raise DomainError(f"boundary map must be binary, found values {vals[:5]}")
        arr = arr.astype(bool)
    return arr


# ---------------------------------------------------------------------------
# tolerances


def tolerance_pixels(h: int, w: int, max_dist_fraction: float) -> float:
    """Matching radius in pixels: the stated fraction of the image diagonal."""
    if h < 1 or w < 1:
        raise ContractError(f"image dims must be >= 1, got {h}x{w}")
    if not (math.isfinite(max_dist_fraction) and max_dist_fraction > 0.0):
        raise ContractError(f"tolerance fraction must be positive and finite, "
                            f"got {max_dist_fraction}")
    tol = max_dist_fraction * math.sqrt(h * h + w * w)
    if not math.isfinite(tol):
        raise ContractError(f"tolerance fraction {max_dist_fraction} of a {h}x{w} image's "
                            f"diagonal overflows")
    return tol


# ---------------------------------------------------------------------------
# post-processing


def _deletable_table(step: int) -> np.ndarray:
    """Whether a pixel is deletable in subiteration ``step``, for each of the
    256 codes of its ring p2..p9 (p2 the bit of weight 1)."""
    table = np.zeros(256, dtype=bool)
    for code in range(256):
        ring = [(code >> k) & 1 for k in range(8)]
        p2, _, p4, _, p6, _, p8, _ = ring
        b = sum(ring)
        a = sum(1 for q, r in zip(ring, ring[1:] + ring[:1]) if (q, r) == (0, 1))
        if step == 0:
            extra = p2 * p4 * p6 == 0 and p4 * p6 * p8 == 0
        else:
            extra = p2 * p4 * p8 == 0 and p2 * p6 * p8 == 0
        table[code] = 2 <= b <= 6 and a == 1 and extra
    return table


_DELETABLE = (_deletable_table(0), _deletable_table(1))


def thin_binary(mask: np.ndarray) -> np.ndarray:
    """Two-subiteration morphological thinning to unit width.

    Classic pattern-table scheme: a pixel is deletable when it has 2..6 set
    neighbors, exactly one 0->1 transition around its ring p2..p9 (north,
    then clockwise), and the subiteration's two 3-neighbor products vanish
    (p2*p4*p6 and p4*p6*p8 in the first, p2*p4*p8 and p2*p6*p8 in the
    second); pixels outside the mask count as 0. Flagged pixels of each
    subiteration are removed simultaneously, so the result is deterministic,
    and the two subiterations repeat until neither removes a pixel.

    The rule depends only on the ring, so it is a 256-entry table per
    subiteration. Each subiteration reads the ring code of the current
    foreground pixels only, as flat indices into a zero-bordered copy, looks
    it up, and drops the deleted pixels from the foreground list.
    """
    img = as_boundary_map(mask)
    h, w = img.shape
    padded = np.zeros((h + 2, w + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = img
    flat = padded.ravel()
    row = w + 2
    ring = (-row, -row + 1, 1, row + 1, row, row - 1, -1, -row - 1)   # p2..p9
    fg = np.flatnonzero(flat)
    changed = True
    while changed:
        changed = False
        for table in _DELETABLE:
            code = np.zeros(fg.size, dtype=np.uint8)
            for bit, offset in enumerate(ring):
                code |= flat[fg + offset] << bit
            kill = table[code]
            if kill.any():
                flat[fg[kill]] = 0
                fg = fg[~kill]
                changed = True
    return padded[1:-1, 1:-1].astype(bool)


_DIR_OFFSETS = ((0, 1), (1, 1), (1, 0), (1, -1))  # E-W, SE-NW, S-N, SW-NE axes


def nms_thin(p) -> np.ndarray:
    """Suppress non-maxima across the local edge, then thin to unit width.

    Orientation comes from the gradient of a sigma=1 Gaussian-smoothed copy,
    quantized to four axes. A pixel survives unless a neighbor along its axis
    is strictly greater, so ties (and flat ridges) are kept and the thinning
    pass resolves them toward the lexicographically smaller index. Surviving
    pixels keep their original values.
    """
    p = as_probability_map(p)
    if not p.any():
        return p.copy()
    h, w = p.shape
    if min(h, w) < 2:
        raise ShapeError(f"edge orientation needs at least 2 pixels along each axis, "
                         f"got a {h}x{w} map")
    smooth = gaussian_filter(p, sigma=1.0, mode="nearest")
    gy, gx = np.gradient(smooth)
    theta = np.mod(np.arctan2(gy, gx), np.pi)
    bins = np.floor(((theta + np.pi / 8) % np.pi) / (np.pi / 4)).astype(np.int64)
    padded = np.pad(p, 1)
    keep = p > 0.0
    for b, (dy, dx) in enumerate(_DIR_OFFSETS):
        fwd = padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
        bwd = padded[1 - dy:1 - dy + h, 1 - dx:1 - dx + w]
        keep &= (bins != b) | ((fwd <= p) & (bwd <= p))
    support = thin_binary(keep & (p > 0.0))
    return np.where(support, p, 0.0)


# ---------------------------------------------------------------------------
# matching


# (support pixel, row offset) pairs per block of the pair search; this many
# hold each of a block's int64 tables at 0.5 MB whatever the image size and
# the tolerance
_PAIR_BUDGET = 1 << 16


def _disk_rows(tol_px: float, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The tolerance disk as runs of columns: the row offsets dy, ascending,
    of the integer offsets (dy, dx) with ``dy*dy + dx*dx <= tol_px*tol_px``
    that can join two pixels of an h x w image, and the largest |dx| on each."""
    ry = min(int(tol_px) + 1, h - 1) if tol_px < h else h - 1    # inf keeps every offset
    rx = min(int(tol_px) + 1, w - 1) if tol_px < w else w - 1
    dy, dx = np.mgrid[-ry:ry + 1, 0:rx + 1]
    inside = dy * dy + dx * dx <= tol_px * tol_px
    rows = inside[:, 0]
    return dy[rows, 0], np.count_nonzero(inside[rows], axis=1) - 1


def _neighbor_graphs(support: np.ndarray, gts: Sequence[np.ndarray],
                     tol_px: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Edges from each support pixel, in row-major order, to each annotator's
    pixels within ``tol_px``: per annotator, the per-row edge counts and the
    ascending column indices (row-major pixel numbers) of all rows.

    The disk covers one run of columns on each row offset, and the annotator
    pixels inside a run of one image row are numbered consecutively, so each
    (support pixel, row offset) pair yields a range of column indices, read
    off a running count of the annotator's pixels. The row offsets ascend, so
    a support pixel's ranges join into ascending columns.

    ``tol_px`` must be non-negative; 0 pairs coincident pixels only, and
    +inf pairs every pixel with every annotator pixel.
    """
    if not tol_px >= 0.0:
        raise ContractError(f"matching tolerance must be non-negative, got {tol_px}")
    h, w = support.shape
    dys, half = _disk_rows(tol_px, h, w)
    ys, xs = np.nonzero(support)
    firsts = []    # per annotator, the number of its first pixel at or after (y, x)
    annotated = np.zeros((h, w), dtype=bool)
    for gt in gts:
        first = np.zeros((h, w + 1), dtype=np.int64)
        np.cumsum(gt, axis=1, out=first[:, 1:])
        first[1:] += np.cumsum(first[:-1, -1])[:, None]
        firsts.append(first)
        annotated |= gt
    # a support pixel with no annotator pixel in the disk's bounding box has
    # no edge, so only the others are searched
    box = (2 * int(dys[-1]) + 1, 2 * int(half.max()) + 1)
    near = np.flatnonzero(maximum_filter(annotated, size=box, mode="constant")[ys, xs])
    block = max(1, _PAIR_BUDGET // max(1, len(dys)))
    graphs = [(np.zeros(len(ys), dtype=np.int64), [np.zeros(0, dtype=np.int64)]) for _ in gts]
    for start in range(0, len(near), block):
        rows = near[start:start + block]
        y = ys[rows, None] + dys
        x = xs[rows, None]
        on_image = (y >= 0) & (y < h)
        y = np.clip(y, 0, h - 1)
        left = np.clip(x - half, 0, w)
        right = np.clip(x + half + 1, 0, w)
        for first, (lengths, indices) in zip(firsts, graphs):
            lo = first[y, left]
            n = np.where(on_image, first[y, right] - lo, 0)
            lengths[rows] = n.sum(axis=1)
            # each range lo, lo + 1, ..., lo + n - 1 in turn
            n = n.ravel()
            indices.append(np.arange(n.sum()) + np.repeat(lo.ravel() - (np.cumsum(n) - n), n))
    return [(lengths, np.concatenate(indices)) for lengths, indices in graphs]


def _priority_matched(lengths: np.ndarray, indices: np.ndarray, n_gt: int,
                      value: np.ndarray) -> np.ndarray:
    """Rows of the greedy maximum matching over the neighbor graph: rows in
    order of ``value`` descending, ties in row-major order, each kept when it
    can join the rows kept so far in one matching. Rows of value 0 or below
    never match. Each row's column indices must ascend.

    The matchable row sets form a transversal matroid, so this greedy set is
    the unique least-weight maximum matched set under any distinct weights
    that rise with the rank, and a sparse Jonker-Volgenant assignment finds
    it. Every prefix of the order, such as the rows at or
    above a threshold, keeps of the greedy set a maximum matching of its own
    rows, whatever other rows there are.

    Only the covered annotator pixels, those with an edge from a candidate
    row, take part; they are the columns, and the row of rank r (from 0)
    weighs ``r + 1``. The assignment's cost grows with its rows times its
    columns, and a short prefix of the ranking often settles the whole set,
    so the top ``k`` rows are assigned first, ``k`` twice the larger of the
    covered count and the shortest prefix that reaches every covered pixel
    (a shorter one cannot match them all; the slack keeps the assignment off
    nearly square graphs, and a cut to the covered count alone ran for over
    a minute on a crisp 321x481 map). When they match every covered pixel,
    they are the answer: the prefix's greedy set is the full greedy set
    restricted to the prefix, and it is already as large as any matched set.
    Otherwise scipy raises ``ValueError``, and all m candidates are assigned
    with one private dummy row of weight ``m + 1`` per covered pixel, so a
    full assignment always exists; the least total weight then matches as
    many candidates as can be, and among those the greedy set.
    """
    rows = np.flatnonzero((value > 0) & (lengths > 0))
    if not len(rows):
        return rows
    # the assignment's cost grows with its row count, so rows without an
    # edge are left out
    m = len(rows)
    rank = np.empty(m, dtype=np.int64)
    rank[np.argsort(-value[rows], kind="stable")] = np.arange(m)
    counts = lengths[rows]
    covered = np.zeros(n_gt, dtype=bool)
    cols = indices[np.repeat(value > 0, lengths)]
    covered[cols] = True
    column = np.cumsum(covered) - 1
    cols = column[cols]
    n = int(column[-1]) + 1
    # each covered pixel's best-ranked neighbor
    best = np.full(n, m)
    np.minimum.at(best, cols, np.repeat(rank, counts))
    k = 2 * max(int(best.max()) + 1, n)
    if k < m:
        keep = rank < k
        try:
            matched = _assigned(rank[keep] + 1, counts[keep], cols[np.repeat(keep, counts)], n)
            return rows[keep][matched]
        except ValueError:   # the prefix cannot match every covered pixel
            pass
    matched = _assigned(np.concatenate([rank + 1, np.full(n, m + 1)]),
                        np.concatenate([counts, np.ones(n, dtype=np.int64)]),
                        np.concatenate([cols, np.arange(n)]), n)
    return rows[matched[matched < m]]


def _assigned(weights: np.ndarray, counts: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """The rows of the least-weight assignment that matches each of the
    ``n`` columns, where row i has ``counts[i]`` edges of weight
    ``weights[i]`` to the columns ``cols``; scipy raises ``ValueError`` when
    no assignment matches every column."""
    indptr = np.zeros(len(weights) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    graph = csr_matrix((np.repeat(weights.astype(float), counts), cols, indptr),
                       shape=(len(weights), n))
    return min_weight_full_bipartite_matching(graph)[0]


def match_boundaries(detected, gt, tol_px: float) -> tuple[int, int]:
    """Count one-to-one correspondences within ``tol_px`` Euclidean distance,
    maximizing the number of pairs; both returned counts are equal. A
    negative or NaN ``tol_px`` raises ``ContractError``."""
    det = as_boundary_map(detected)
    gtm = as_boundary_map(gt)
    if det.shape != gtm.shape:
        raise ShapeError(f"detected {det.shape} and ground truth {gtm.shape} differ in shape")
    (lengths, indices), = _neighbor_graphs(det, [gtm], tol_px)
    value = np.ones(len(lengths))
    matched = len(_priority_matched(lengths, indices, np.count_nonzero(gtm), value))
    return matched, matched


# ---------------------------------------------------------------------------
# counting and curves


def precision_recall_f(counts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision, recall and F of each count row of ``counts`` (..., 4).

    A count row holds matched detections, detections, matched annotator
    pixels and annotator pixels, the order of every count array here.
    Precision is 1 when nothing is detected, recall is 1 when there is no
    annotator pixel, and F is 0 when precision and recall are both 0.
    """
    counts = np.asarray(counts)
    matched_detected, detected, matched_gt, gt = np.moveaxis(counts, -1, 0)
    shape = counts.shape[:-1]
    precision = np.divide(matched_detected, detected, out=np.ones(shape), where=detected > 0)
    recall = np.divide(matched_gt, gt, out=np.ones(shape), where=gt > 0)
    total = precision + recall
    f = np.divide(2.0 * precision * recall, total, out=np.zeros_like(total), where=total > 0.0)
    return precision, recall, f


# the threshold count of the BSDS-style precision-recall sweep
N_THRESHOLDS = 33


def default_thresholds(n: int = N_THRESHOLDS) -> list[float]:
    """n uniform thresholds strictly inside (0, 1)."""
    if n < 1:
        raise ContractError(f"threshold count must be >= 1, got {n}")
    return [k / (n + 1) for k in range(1, n + 1)]


def _counts_at_thresholds(base: np.ndarray, annotations: AnnotationSet,
                          thresholds: Sequence[float], tol_px: float) -> np.ndarray:
    """The (thresholds, 4) count rows of the detections ``base >= t`` for
    each of the ascending ``thresholds``, from one pair search over the
    support ``base > 0``."""
    on = base > 0.0
    gts = annotations.maps > 0.5
    return _counts_on_graphs(base[on], _neighbor_graphs(on, gts, tol_px), gts, thresholds)


def _counts_on_graphs(vals: np.ndarray, graphs: Sequence[tuple[np.ndarray, np.ndarray]],
                      gts: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """``_counts_at_thresholds`` of the support pixels, in row-major order,
    of values ``vals`` and neighbor graphs ``graphs`` to the annotator maps
    ``gts``."""
    # each annotator is matched once for all thresholds by the greedy
    # matching in order of value (``_priority_matched``). The pixels at or
    # above a threshold are a prefix of that order, so their part of it is a
    # maximum matching of them, the same on any threshold grid, and a pixel
    # matched at one threshold stays matched at every lower one. A pixel's
    # level is the number of thresholds it clears; pixels below every
    # threshold are left out. Recall sums each annotator's matches, while a
    # detected pixel counts toward precision once no matter how many
    # annotators it satisfies
    level = np.searchsorted(thresholds, vals, side="right")
    value = np.where(level > 0, vals, 0.0)
    n_levels = len(thresholds) + 1
    matched_union = np.zeros(len(level), dtype=bool)
    per_level = np.zeros((n_levels, 4), dtype=np.int64)
    for (lengths, indices), gt in zip(graphs, gts):
        rows = _priority_matched(lengths, indices, int(np.count_nonzero(gt)), value)
        per_level[:, 2] += np.bincount(level[rows], minlength=n_levels)
        matched_union[rows] = True
    per_level[:, 0] = np.bincount(level[matched_union], minlength=n_levels)
    per_level[:, 1] = np.bincount(level, minlength=n_levels)
    # the k-th threshold counts the pixels at or above level k + 1
    counts = np.cumsum(per_level[::-1], axis=0)[::-1][1:]
    counts[:, 3] = np.count_nonzero(gts)
    return counts


def pr_at_threshold(p, annotations: AnnotationSet, t: float, tol_px: float,
                    post_process: bool) -> np.ndarray:
    """The count row of the detections ``p >= t`` (after post-processing
    when requested) against every annotator in order; it is the row of a
    threshold sweep through ``t``. A negative or NaN ``tol_px`` raises
    ``ContractError``."""
    if not 0.0 < t < 1.0:
        raise ContractError(f"threshold must be in (0, 1), got {t}")
    p = as_probability_map(p)
    base = nms_thin(p) if post_process else p
    return _counts_at_thresholds(base, annotations, [t], tol_px)[0]


@dataclass(frozen=True)
class BenchmarkScores:
    ods: float
    ois: float
    ap: float
    criterion: str


def average_precision(points: Sequence[tuple[float, float]]) -> float:
    """Area under the precision envelope over recall.

    ``points`` are (recall, precision) pairs; precision is first made
    non-increasing in recall by a running max, then step-integrated down to
    recall 0.
    """
    by_recall: dict[float, float] = {}
    for r, p in points:
        by_recall[r] = max(p, by_recall.get(r, 0.0))
    recalls = sorted(by_recall, reverse=True)
    area = 0.0
    best = 0.0
    for i, r in enumerate(recalls):
        best = max(best, by_recall[r])
        lower = recalls[i + 1] if i + 1 < len(recalls) else 0.0
        area += (r - lower) * best
    return area


def summarize(counts, thresholds: Sequence[float],
              criterion: str = "correctness") -> tuple[BenchmarkScores, list]:
    """Reduce an (images, thresholds, 4) count array to dataset scores.

    The best-threshold F over dataset-aggregated counts, the mean of each
    image's own best F, the area under the aggregated PR curve, and that
    curve as (threshold, precision, recall, f) rows.
    """
    counts = np.asarray(counts)
    if counts.ndim != 3 or counts.shape[1:] != (len(thresholds), 4) or not counts.size:
        raise ContractError(f"counts must be shaped (images >= 1, {len(thresholds)} "
                            f"thresholds >= 1, 4), got {counts.shape}")
    pooled = precision_recall_f(counts.sum(axis=0))
    curve = list(zip(map(float, thresholds), *(column.tolist() for column in pooled)))
    # a float sum in image order, as the mean of a list of floats
    ois = sum(precision_recall_f(counts)[2].max(axis=1).tolist()) / len(counts)
    scores = BenchmarkScores(ods=max(row[3] for row in curve), ois=ois,
                             ap=average_precision([(r, p) for (_, p, r, _) in curve]),
                             criterion=criterion)
    return scores, curve


# ---------------------------------------------------------------------------
# the three criteria

_CRITERIA = ("correctness", "localness", "thickness")


@dataclass(frozen=True)
class CriterionResult:
    scores: BenchmarkScores
    curve: list


@dataclass(frozen=True)
class EvalReport:
    correctness: CriterionResult
    localness: CriterionResult
    thickness: CriterionResult

    def results(self) -> list[CriterionResult]:
        return [self.correctness, self.localness, self.thickness]


def eval_criteria(preds: Sequence, annotations_per_image: Sequence[AnnotationSet],
                  base_fraction: float, n_thresholds: int = N_THRESHOLDS) -> EvalReport:
    """Score every prediction three ways: standard tolerance with
    post-processing, quarter tolerance with post-processing, and standard
    tolerance on the raw map.

    The standard-tolerance pairs are searched once per image, over the raw
    support ``p > 0``: thickness matches on that graph, and correctness on
    its rows of the thinned support, which is part of the raw one. The
    raw-support graph is dropped before localness searches its own pairs at
    the quarter tolerance."""
    preds = [as_probability_map(p) for p in preds]
    anns = list(annotations_per_image)
    if not preds:
        raise ContractError("no predictions to evaluate")
    if len(preds) != len(anns):
        raise ContractError(f"{len(preds)} predictions but {len(anns)} annotation sets")
    for p, a in zip(preds, anns):
        if p.shape != a.spatial_shape:
            raise ShapeError(f"prediction {p.shape} does not match annotations {a.spatial_shape}")
    thresholds = default_thresholds(n_thresholds)
    counts = np.zeros((len(_CRITERIA), len(preds), len(thresholds), 4), dtype=np.int64)
    for i, (p, ann) in enumerate(zip(preds, anns)):
        tol = tolerance_pixels(p.shape[0], p.shape[1], base_fraction)
        thin = nms_thin(p)
        gts = ann.maps > 0.5
        on = p > 0.0
        graphs = _neighbor_graphs(on, gts, tol)
        counts[2, i] = _counts_on_graphs(p[on], graphs, gts, thresholds)
        # the thinned support's rows, in row-major order as in the raw one
        sel = (thin > 0.0)[on]
        graphs = [(lengths[sel], indices[np.repeat(sel, lengths)]) for lengths, indices in graphs]
        counts[0, i] = _counts_on_graphs(thin[thin > 0.0], graphs, gts, thresholds)
        del graphs
        counts[1, i] = _counts_at_thresholds(thin, ann, thresholds, tol / 4.0)
    return EvalReport(*(CriterionResult(*summarize(c, thresholds, name))
                        for name, c in zip(_CRITERIA, counts)))


# ---------------------------------------------------------------------------
# text emission


def pr_curve_csv(curve: Sequence[tuple]) -> str:
    lines = ["threshold,precision,recall,f"]
    for t, p, r, f in curve:
        lines.append(f"{fmt(t)},{fmt(p)},{fmt(r)},{fmt(f)}")
    return "\n".join(lines) + "\n"


def score_block(report: EvalReport) -> str:
    suffix = {"correctness": "c", "localness": "l", "thickness": "t"}
    lines = []
    for res in report.results():
        s = res.scores
        tag = suffix[s.criterion]
        lines.append(f"ods_{tag}={fmt(s.ods)}")
        lines.append(f"ois_{tag}={fmt(s.ois)}")
        lines.append(f"ap_{tag}={fmt(s.ap)}")
    return "\n".join(lines) + "\n"
