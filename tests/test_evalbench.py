import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from crispedge import evalbench
from crispedge.data import gen_synthetic
from crispedge.errors import ContractError, DomainError, ShapeError
from crispedge.evalbench import (
    _counts_at_thresholds,
    _neighbor_graphs,
    _priority_matched,
    average_precision,
    default_thresholds,
    eval_criteria,
    fmt,
    match_boundaries,
    nms_thin,
    pr_at_threshold,
    pr_curve_csv,
    precision_recall_f,
    score_block,
    summarize,
    thin_binary,
    tolerance_pixels,
)
from crispedge.losses import AnnotationSet
from crispedge.network import build_refine_net, predict

from oracles import (max_matching_loops, neighbor_graph, priority_counts, priority_matched_loops,
                     summarize_loops, thin_loops)


def ring_mask(n=12):
    m = np.zeros((n, n))
    m[2, 2:n - 3] = 1
    m[n - 4, 2:n - 3] = 1
    m[2:n - 3, 2] = 1
    m[2:n - 3, n - 4] = 1
    return m


# ---------------------------------------------------------------------------
# tolerance arithmetic


def test_tolerance_matches_standard_setup():
    d0 = tolerance_pixels(481, 321, 0.0075)
    assert 4.30 <= d0 <= 4.40


def test_tolerance_linear_in_fraction():
    a = tolerance_pixels(100, 200, 0.01)
    b = tolerance_pixels(100, 200, 0.02)
    assert b == pytest.approx(2 * a, rel=1e-15)


def test_localness_is_correctness_at_a_quarter_tolerance():
    rng = np.random.default_rng(3)
    p = gaussian_filter(rng.random((24, 24)), 1.0)
    p = (p - p.min()) / (p.max() - p.min())
    ann = AnnotationSet([(rng.random((24, 24)) > 0.8).astype(float) for _ in range(2)])
    fraction = 0.2    # a quarter of the tolerance, 1.70 px, reaches diagonal neighbors
    tol = tolerance_pixels(24, 24, fraction)
    report = eval_criteria([p], [ann], fraction, n_thresholds=9)
    counts = _counts_at_thresholds(nms_thin(p), ann, default_thresholds(9), tol / 4)
    scores, curve = summarize([counts], default_thresholds(9), criterion="localness")
    assert report.localness.curve == curve
    assert report.localness.scores == scores


def test_tolerance_validation():
    with pytest.raises(ContractError):
        tolerance_pixels(0, 10, 0.01)
    with pytest.raises(ContractError):
        tolerance_pixels(10, 10, 0.0)


# ---------------------------------------------------------------------------
# post-processing


def test_nms_all_zero():
    z = np.zeros((7, 7))
    out = nms_thin(z)
    assert np.array_equal(out, z)


def test_nms_constant_thin_ridges_unchanged():
    h = np.zeros((9, 9))
    h[4, 1:8] = 0.7
    v = np.zeros((9, 9))
    v[1:8, 4] = 0.7
    d = np.zeros((9, 9))
    for i in range(1, 8):
        d[i, i] = 0.7
    for m in (h, v, d):
        assert np.array_equal(nms_thin(m), m)


def test_nms_peaked_ridge_center_column_survives():
    # hand-enumerated 9x9: a 3-px-wide vertical ridge whose center column is
    # strictly the strongest must collapse to exactly that column
    p = np.zeros((9, 9))
    p[2:7, 3] = 0.4
    p[2:7, 4] = 0.9
    p[2:7, 5] = 0.4
    out = nms_thin(p)
    want = np.zeros((9, 9))
    want[2:7, 4] = 0.9
    assert np.array_equal(out, want)


def test_nms_keeps_original_probabilities():
    p = np.zeros((9, 9))
    p[4, 1:8] = np.array([0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3])
    p[4, 4] = 0.8  # single peak on a flat ridge keeps its own value
    out = nms_thin(p)
    surv = out[out > 0]
    assert set(np.unique(surv)).issubset({0.3, 0.8})


def test_nms_input_validation():
    with pytest.raises(ShapeError):
        nms_thin(np.zeros((2, 2, 2)))
    with pytest.raises(DomainError):
        nms_thin(np.full((3, 3), 1.5))


@pytest.mark.parametrize("shape", [(1, 6), (6, 1)])
def test_nms_one_pixel_side(shape):
    # an all-zero map needs no orientation and passes through; any other map
    # with a 1-pixel side has no gradient along that side
    assert np.array_equal(nms_thin(np.zeros(shape)), np.zeros(shape))
    p = np.zeros(shape)
    p.flat[2] = 0.7
    with pytest.raises(ShapeError, match="at least 2 pixels"):
        nms_thin(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_probabilities_rejected(bad):
    p = np.full((4, 4), 0.5)
    p[1, 2] = bad
    with pytest.raises(DomainError):
        nms_thin(p)
    with pytest.raises(DomainError):
        eval_criteria([p], [AnnotationSet([np.zeros((4, 4))])], 0.05)


def test_thin_bar_to_unit_width():
    bar = np.zeros((7, 11), dtype=bool)
    bar[2:5, 1:10] = True
    t = thin_binary(bar)
    assert t.sum() > 0
    assert np.all(bar[t])  # thinning only removes, never adds
    # unit width: no 2x2 window fully set
    two_by_two = t[:-1, :-1] & t[1:, :-1] & t[:-1, 1:] & t[1:, 1:]
    assert not two_by_two.any()
    # the bar's skeleton is its middle row
    assert set(np.argwhere(t)[:, 0]) == {3}


def test_thin_blob_to_unit_width():
    blob = np.zeros((9, 9), dtype=bool)
    blob[2:7, 2:7] = True
    t = thin_binary(blob)
    two_by_two = t[:-1, :-1] & t[1:, :-1] & t[:-1, 1:] & t[1:, 1:]
    assert not two_by_two.any()
    assert t.sum() >= 1 and np.all(blob[t])


def thin_cases():
    rng = np.random.default_rng(22)
    for density in np.linspace(0.05, 0.95, 10):
        for shape in ((17, 23), (9, 31)):
            yield rng.random(shape) < density
    for n in (1, 2, 7):
        yield np.ones((1, n), dtype=bool)
        yield np.ones((n, 1), dtype=bool)
        yield rng.random((1, 5 * n)) < 0.6
        yield rng.random((5 * n, 1)) < 0.6
    yield np.zeros((0, 0), dtype=bool)
    yield np.zeros((6, 8), dtype=bool)
    yield np.ones((12, 15), dtype=bool)
    # blocks and bars flush against each edge and corner
    edges = np.zeros((14, 16), dtype=bool)
    edges[:3, 4:12] = edges[-4:, 2:9] = edges[5:11, :2] = edges[3:13, -3:] = True
    yield edges
    corners = np.zeros((11, 11), dtype=bool)
    corners[:4, :4] = corners[:3, -5:] = corners[-4:, :5] = corners[-3:, -3:] = True
    yield corners
    framed = rng.random((16, 16)) < 0.7
    framed[[0, -1], :] = framed[:, [0, -1]] = True
    yield framed


def test_thin_binary_equals_pixel_loop_oracle():
    for mask in thin_cases():
        got = thin_binary(mask)
        assert got.shape == mask.shape and got.dtype == bool
        assert np.array_equal(got, thin_loops(mask)), mask.astype(int)


def test_nms_thin_idempotent_on_corpus():
    corpus = []
    corpus.append(ring_mask())
    h = np.zeros((9, 9))
    h[4, 1:8] = 0.7
    corpus.append(h)
    # plateau-style map, the shape a trained detector emits
    p = np.zeros((24, 24))
    p[12, 3:21] = 1.0
    p[3:21, 8] = 1.0
    corpus.append(np.clip(gaussian_filter(p, 1.2) * 4.0, 0, 0.97))
    # binary outputs of the generator-style rasterizer
    disk = np.zeros((16, 16))
    yy, xx = np.mgrid[:16, :16]
    rr = np.hypot(yy - 8, xx - 8)
    disk[(rr > 4.0) & (rr < 5.2)] = 1.0
    corpus.append((thin_binary(disk > 0)).astype(float))
    for m in corpus:
        once = nms_thin(m)
        twice = nms_thin(once)
        assert np.array_equal(once, twice)


# ---------------------------------------------------------------------------
# matching


def test_match_identity_all_matched():
    m = ring_mask() > 0
    md, mg = match_boundaries(m, m, 1.0)
    assert md == mg == m.sum()


def test_match_shifted_line():
    a = np.zeros((6, 8), dtype=bool)
    a[2, 1:6] = True
    b = np.zeros((6, 8), dtype=bool)
    b[2, 2:7] = True  # same line shifted 1 px right
    md, mg = match_boundaries(a, b, 1.5)
    assert md == mg == 5


# (tolerance, pairs found between a 5-px line and its 1-px shift, or the error)
TOLERANCE_DOMAIN = {
    "zero": (0.0, 4),
    "inf": (math.inf, 5),
    "negative": (-1.5, ContractError),
    "nan": (math.nan, ContractError),
}


@pytest.mark.parametrize("case", TOLERANCE_DOMAIN.values(), ids=TOLERANCE_DOMAIN)
def test_match_tolerance_domain(case):
    tol, want = case
    a = np.zeros((6, 8), dtype=bool)
    a[2, 1:6] = True
    b = np.roll(a, 1, axis=1)
    ann = AnnotationSet([b])
    if want is ContractError:
        with pytest.raises(ContractError, match="tolerance"):
            match_boundaries(a, b, tol)
        with pytest.raises(ContractError, match="tolerance"):
            pr_at_threshold(a.astype(float), ann, 0.5, tol, post_process=False)
    else:
        assert match_boundaries(a, b, tol) == (want, want)
        assert pr_at_threshold(a.astype(float), ann, 0.5, tol, post_process=False)[2] == want


def test_match_empty_sides():
    z = np.zeros((5, 5), dtype=bool)
    m = ring_mask(5) > 0 if False else np.eye(5, dtype=bool)
    assert match_boundaries(z, m, 2.0) == (0, 0)
    assert match_boundaries(m, z, 2.0) == (0, 0)
    assert match_boundaries(z, z, 2.0) == (0, 0)


def test_match_shape_mismatch():
    with pytest.raises(ShapeError):
        match_boundaries(np.zeros((4, 4), dtype=bool), np.zeros((5, 5), dtype=bool), 1.0)


def test_match_monotone_in_tolerance():
    rng = np.random.default_rng(0)
    a = rng.random((10, 10)) > 0.8
    b = rng.random((10, 10)) > 0.8
    counts = [match_boundaries(a, b, tol)[0] for tol in (0.5, 1.0, 1.5, 2.0, 3.0, 5.0)]
    assert counts == sorted(counts)


# tolerances where a lattice distance sits exactly on, or one ulp off, the radius
EDGE_TOLERANCES = [0.0, 0.5, 1.0, math.sqrt(2.0), 2.0, math.sqrt(5.0),
                   math.nextafter(2.0, -math.inf), math.nextafter(2.0, math.inf)]


@st.composite
def pair_search_case(draw):
    """A support mask and one to three annotator masks on an image of 1x1 to
    40x40, each mask empty, full or random, and a tolerance below one pixel,
    on a lattice distance, anywhere up to a few pixels, or at or above the
    image diagonal."""
    h = draw(st.integers(1, 40), label="h")
    w = draw(st.integers(1, 40), label="w")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))

    def mask():
        density = draw(st.sampled_from([0.0, 0.02, 0.2, 0.6, 1.0]))
        return rng.random((h, w)) < density

    support = mask()
    gts = [mask() for _ in range(draw(st.integers(1, 3), label="annotators"))]
    diagonal = math.hypot(h - 1, w - 1)
    tol = draw(st.one_of(st.sampled_from(EDGE_TOLERANCES),
                         st.floats(0.0, 6.0),
                         st.sampled_from([diagonal, math.hypot(h, w), 4.0 * math.hypot(h, w)])),
               label="tol")
    return support, gts, tol


@settings(max_examples=300, deadline=None)
@given(case=pair_search_case())
def test_grid_pair_search_equals_kdtree_oracle(case):
    support, gts, tol = case
    graphs = _neighbor_graphs(support, gts, tol)
    assert len(graphs) == len(gts)
    for gt, (lengths, indices) in zip(gts, graphs):
        want_lengths, want_indices = neighbor_graph(np.argwhere(support), np.argwhere(gt), tol)
        assert np.array_equal(lengths, want_lengths)
        assert np.array_equal(indices, want_indices)


def test_pair_search_memory_is_bounded_at_bsds_size():
    # every pixel of a 321x481 map as support against three annotators at the
    # standard tolerance: searched in one block, the pair search peaks near
    # 90 MB; the whole call on the untrained network's near-flat map, whose
    # thickness support is every pixel, peaked at 22.8 MB with a KD-tree search
    h, w = 321, 481
    sample = gen_synthetic(1, (h, w), 3, 1.0, 0)[0]
    tol = tolerance_pixels(h, w, 0.0075)
    near_flat = predict(build_refine_net(seed=0), sample.image)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _neighbor_graphs(np.ones((h, w), dtype=bool), sample.annotations.maps > 0.5, tol)
        search_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        eval_criteria([near_flat], [sample.annotations], 0.0075)
        eval_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert search_peak < 32 * 2**20
    assert eval_peak < 23 * 2**20


def test_match_equals_augmenting_path_oracle():
    rng = np.random.default_rng(1)
    for trial in range(60):
        h = int(rng.integers(4, 13))
        w = int(rng.integers(4, 13))
        a = rng.random((h, w)) > 0.75
        b = rng.random((h, w)) > 0.75
        for tol in (1.0, 1.5, 3.0):
            md, mg = match_boundaries(a, b, tol)
            assert md == mg
            want = max_matching_loops([tuple(p) for p in np.argwhere(a)],
                                      [tuple(p) for p in np.argwhere(b)], tol)
            assert md == want, f"trial {trial} tol {tol}"


# the thickness matching of annotator 1 at threshold 18/34 on this crisp map,
# 779 detections by 783 annotator pixels, is a graph on which scipy's
# Hopcroft-Karp ran for minutes
STALLED_GRAPH = """
from scipy.ndimage import gaussian_filter
from crispedge.data import gen_synthetic
from crispedge.evalbench import _counts_at_thresholds, default_thresholds, tolerance_pixels
from crispedge.losses import AnnotationSet

sample = gen_synthetic(2, (321, 481), 3, 1.0, 0)[1]
crisp = gaussian_filter(sample.true_boundary, 0.7)
crisp /= crisp.max()
thresholds = default_thresholds(33)
counts = _counts_at_thresholds(crisp, AnnotationSet([sample.annotations.maps[1]]),
                               thresholds, tolerance_pixels(321, 481, 0.0075))
print(thresholds[17] * 34, *counts[17, 1:])
"""


def test_matching_does_not_stall_on_a_crisp_bsds_map(run_python):
    # a child process with a time limit turns a stall into a failure instead
    # of a hung suite
    proc = run_python("-c", STALLED_GRAPH, timeout=60)
    assert proc.returncode == 0, proc.stderr
    threshold, detected, matched, total = proc.stdout.split()
    assert float(threshold) == pytest.approx(18.0)
    assert (detected, matched, total) == ("779", "777", "783")


def dummy_padded(graph):
    """Whether an assignment graph ends in one dummy row per column, each
    weighing one more than the m candidate rows before them, as the
    assignment over every candidate row does; a graph cut to a prefix has no
    dummy rows."""
    n = graph.shape[1]
    dummy = graph.shape[0] - n + 1
    return (graph.shape[0] > n and np.array_equal(np.diff(graph.indptr[-n - 1:]), np.ones(n))
            and np.array_equal(graph.indices[-n:], np.arange(n))
            and np.array_equal(graph.data[-n:], np.full(n, dummy)))


@pytest.fixture
def assignments(monkeypatch):
    """Records each assignment graph ``_priority_matched`` solves and whether
    scipy found its full matching; ``assignments.cut = False`` makes every
    graph cut to a prefix fail, as though the prefix could not match."""
    real = evalbench.min_weight_full_bipartite_matching

    class Log(list):
        cut = True

    log = Log()

    def record(graph):
        if not log.cut and not dummy_padded(graph):
            log.append((graph, False))
            raise ValueError("no full matching exists")
        try:
            result = real(graph)
        except ValueError:
            log.append((graph, False))
            raise
        log.append((graph, True))
        return result

    monkeypatch.setattr(evalbench, "min_weight_full_bipartite_matching", record)
    return log


def prefix_bound(lengths, indices, value):
    """The cut's prefix length k and covered pixel count, by loops: covered
    pixels have an edge from a row of positive value, and k is twice the
    larger of their count and the shortest value-ranked prefix whose rows
    reach every one of them."""
    starts = np.concatenate([[0], np.cumsum(lengths)])
    order = sorted((i for i in range(len(lengths)) if value[i] > 0 and lengths[i] > 0),
                   key=lambda i: (-value[i], i))
    best = {}
    for r, i in enumerate(order):
        for j in indices[starts[i]:starts[i + 1]]:
            best.setdefault(int(j), r)
    return 2 * max(max(best.values()) + 1, len(best)), len(best)


def test_priority_matched_equals_greedy_oracle_on_random_graphs(assignments):
    # many more candidate rows than columns, values with ties or continuous,
    # zeros and rows without edges; in two graphs of three, columns 0 and 1
    # have only two neighbors, the highest row and the lowest, so that a
    # prefix cut cannot match them both and falls back to every row
    rng = np.random.default_rng(26)
    for trial in range(150):
        m = int(rng.integers(10, 80))
        n_gt = int(rng.integers(3, 12))
        value = rng.integers(1, 6, m) / 5.0 if trial % 2 else rng.random(m)
        value[rng.random(m) < 0.2] = 0.0
        lengths = np.minimum(rng.integers(0, 4, m), n_gt - 2)
        rows = [np.sort(rng.choice(np.arange(2, n_gt), size=n, replace=False)) for n in lengths]
        if trial % 3:
            rows[0], rows[1] = np.array([0, 1]), np.array([0, 1][int(rng.integers(2)):])
            lengths[:2] = len(rows[0]), len(rows[1])
            value[0], value[1] = 1.0, 0.01
        perm = rng.permutation(m)
        lengths, value = lengths[perm], value[perm]
        indices = np.concatenate([rows[i] for i in perm]).astype(np.int64)
        got = _priority_matched(lengths, indices, n_gt, value)
        assert len(set(got.tolist())) == len(got)
        assert set(got.tolist()) == priority_matched_loops(lengths, indices, n_gt, value), trial
    cut = [ok for graph, ok in assignments if not dummy_padded(graph)]
    assert cut.count(True) > 10 and cut.count(False) > 10


def unsettled_prefix_map():
    """Annotator pixels (2, 2) and (2, 3) have one high detection, (1, 2),
    and one low, (3, 3), as neighbors at tolerance 1.5; eight detections
    ring the distant pixel (9, 9). The top k = 6 rows reach all three pixels
    but hold only one neighbor of the first two, so the cut's assignment
    fails. Returns the map and the annotator map."""
    gt = np.zeros((12, 12))
    gt[2, 2:4] = gt[9, 9] = 1
    p = np.zeros((12, 12))
    p[1, 2] = 0.9
    p[8:11, 8:11] = 0.8
    p[9, 9] = 0.0
    p[3, 3] = 0.2
    return p, gt


def test_prefix_that_cannot_match_falls_back_to_every_row(assignments):
    p, gt = unsettled_prefix_map()
    thresholds = default_thresholds(33)
    counts = _counts_at_thresholds(p, AnnotationSet([gt]), thresholds, 1.5)
    assert [ok for _, ok in assignments] == [False, True]
    assert assignments[0][0].shape == (6, 3)
    for c, t in zip(counts.tolist(), thresholds):
        assert tuple(c) == priority_counts(p, [gt], t, 1.5)
    assert counts[0].tolist() == [3, 10, 3, 3]


def test_assignments_have_one_column_per_covered_annotator_pixel(assignments):
    # an annotator pixel, (11, 0), that no detection reaches gets a column
    # in neither the prefix graph nor the fallback graph
    p, gt = unsettled_prefix_map()
    gt[11, 0] = 1
    thresholds = default_thresholds(33)
    counts = _counts_at_thresholds(p, AnnotationSet([gt]), thresholds, 1.5)
    assert [ok for _, ok in assignments] == [False, True]
    assert [graph.shape for graph, _ in assignments] == [(6, 3), (10 + 3, 3)]
    assert dummy_padded(assignments[1][0])
    for c, t in zip(counts.tolist(), thresholds):
        assert tuple(c) == priority_counts(p, [gt], t, 1.5)
    assert counts[0].tolist() == [3, 10, 3, 4]


def test_thickness_assignment_is_cut_to_a_prefix(assignments):
    # a blurred band puts several times more candidates than annotator
    # pixels into the raw map's matching, and a short prefix settles it
    h = w = 64
    sample = gen_synthetic(1, (h, w), 3, 1.0, 0)[0]
    p = gaussian_filter(sample.true_boundary, 2.0)
    p /= p.max()
    gts = sample.annotations.maps > 0.5
    tol = tolerance_pixels(h, w, 0.05)
    value = p[p > 0.0]
    for (lengths, indices), gt in zip(_neighbor_graphs(p > 0.0, gts, tol), gts):
        k, covered = prefix_bound(lengths, indices, value)
        assert np.count_nonzero(lengths) > k
        assignments.clear()
        assignments.cut = True
        rows = _priority_matched(lengths, indices, int(np.count_nonzero(gt)), value)
        (graph, ok), = assignments
        assert ok and graph.shape[0] <= k and graph.shape[1] == covered
        assignments.cut = False
        uncut = _priority_matched(lengths, indices, int(np.count_nonzero(gt)), value)
        assert [ok for _, ok in assignments[1:]] == [False, True]
        assert np.array_equal(np.sort(rows), np.sort(uncut))
    # equal values rank the rows in row-major order, whose prefixes reach the
    # last annotator pixels only near their end
    assignments.clear()
    for t in (0.1, 0.5):
        for gt in gts:
            match_boundaries(p >= t, gt, tol)
    assert assignments and all(dummy_padded(graph) for graph, _ in assignments)


# ---------------------------------------------------------------------------
# per-threshold counting


def test_pr_perfect_detection():
    m = ring_mask()
    ann = AnnotationSet([m])
    c = pr_at_threshold(m.astype(float), ann, 0.3, 1.0, post_process=False)
    assert precision_recall_f(c) == (1.0, 1.0, 1.0)


def test_pr_empty_detection_convention():
    m = ring_mask()
    ann = AnnotationSet([m])
    c = pr_at_threshold(np.zeros_like(m), ann, 0.5, 1.0, post_process=False)
    assert c.tolist() == [0, 0, 0, np.count_nonzero(m)]
    assert precision_recall_f(c) == (1.0, 0.0, 0.0)


def test_pr_threshold_domain():
    m = ring_mask()
    with pytest.raises(ContractError):
        pr_at_threshold(m, AnnotationSet([m]), 0.0, 1.0, False)
    with pytest.raises(ContractError):
        pr_at_threshold(m, AnnotationSet([m]), 1.0, 1.0, False)


def test_pr_two_annotator_hand_table():
    # annotator A: column 2 rows 1..6; annotator B: column 5 rows 1..6.
    # detection covers all of A plus the top 3 pixels of B at strength 0.8.
    a = np.zeros((8, 8))
    a[1:7, 2] = 1
    b = np.zeros((8, 8))
    b[1:7, 5] = 1
    det = np.zeros((8, 8))
    det[1:7, 2] = 0.8
    det[1:4, 5] = 0.8
    c = pr_at_threshold(det, AnnotationSet([a, b]), 0.5, 1.0, post_process=False)
    assert c.tolist() == [9, 9, 9, 12]
    precision, recall, _ = precision_recall_f(c)
    assert precision == 1.0
    assert recall == pytest.approx(0.75)


def test_pr_detected_pixel_counts_once_but_covers_all_annotators():
    # one detected pixel satisfies both annotators for recall, yet adds only
    # one matched detection toward precision
    m = np.zeros((5, 5))
    m[2, 2] = 1
    det = m.astype(float)
    c = pr_at_threshold(det, AnnotationSet([m, m]), 0.5, 1.0, post_process=False)
    assert c.tolist() == [1, 1, 2, 2]
    assert precision_recall_f(c)[:2] == (1.0, 1.0)


def test_recall_non_increasing_in_threshold():
    rng = np.random.default_rng(2)
    p = gaussian_filter(rng.random((16, 16)), 1.5)
    p = (p - p.min()) / (p.max() - p.min())
    ann = AnnotationSet([(rng.random((16, 16)) > 0.85).astype(float)])
    recalls = [precision_recall_f(pr_at_threshold(p, ann, t, 2.0, False))[1]
               for t in default_thresholds(9)]
    for r1, r2 in zip(recalls, recalls[1:]):
        assert r2 <= r1 + 1e-12


def random_score_case(rng):
    """A small prediction map with zeros, ties on a few levels or continuous
    values, and one to three annotators; now and then the map or an
    annotator is empty."""
    h = int(rng.integers(3, 11))
    w = int(rng.integers(3, 11))
    kind = rng.integers(4)
    if kind == 0:
        p = np.zeros((h, w))
    elif kind == 1:
        p = rng.integers(0, 5, (h, w)) / 4.0
    else:
        p = rng.random((h, w)) * (rng.random((h, w)) > 0.4)
    maps = [(rng.random((h, w)) > 0.7).astype(float) for _ in range(int(rng.integers(1, 4)))]
    if rng.random() < 0.15:
        maps[0][:] = 0.0
    return p, maps


def test_all_threshold_counts_equal_per_threshold_search():
    # one pair search and one matching per annotator over the support must
    # give each threshold exactly the counts, precision union included, of a
    # fresh priority matching over p >= t alone, and recall must be that of a
    # maximum matching
    rng = np.random.default_rng(11)
    thresholds = default_thresholds(9)
    for trial in range(40):
        p, maps = random_score_case(rng)
        for tol in (1.0, 1.5, 3.0):
            got = _counts_at_thresholds(p, AnnotationSet(maps), thresholds, tol)
            assert got.shape == (len(thresholds), 4)
            for c, t in zip(got.tolist(), thresholds):
                want = priority_counts(p, maps, t, tol)
                assert tuple(c) == want, f"trial {trial} tol {tol} t {t}"
                det_pts = [tuple(q) for q in np.argwhere(p >= t)]
                recall_pairs = sum(max_matching_loops(det_pts, [tuple(q) for q in np.argwhere(m)], tol)
                                   for m in maps)
                assert c[2] == recall_pairs, f"trial {trial} tol {tol} t {t}"


def test_all_threshold_counts_after_post_processing():
    rng = np.random.default_rng(12)
    thresholds = default_thresholds(33)
    for _ in range(10):
        p = gaussian_filter(rng.random((14, 14)), 1.0)
        p = (p - p.min()) / (p.max() - p.min())
        maps = [(rng.random((14, 14)) > 0.8).astype(float) for _ in range(2)]
        thin = nms_thin(p)
        got = _counts_at_thresholds(thin, AnnotationSet(maps), thresholds, 1.5)
        for c, t in zip(got, thresholds):
            assert tuple(c.tolist()) == priority_counts(thin, maps, t, 1.5)
            assert np.array_equal(c, pr_at_threshold(p, AnnotationSet(maps), t, 1.5,
                                                     post_process=True))


@st.composite
def score_case(draw):
    """A map of 2x2 to 12x12 with values on a few levels or continuous, with
    zeros, one or two annotators, a tolerance and a threshold grid."""
    h = draw(st.integers(2, 12), label="h")
    w = draw(st.integers(2, 12), label="w")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if draw(st.booleans(), label="levelled"):
        p = rng.integers(0, 6, (h, w)) / 5.0
    else:
        p = rng.random((h, w)) * (rng.random((h, w)) > 0.3)
    density = draw(st.sampled_from([0.1, 0.3, 0.6]), label="density")
    maps = [(rng.random((h, w)) < density).astype(float)
            for _ in range(draw(st.integers(1, 2), label="annotators"))]
    tol = draw(st.sampled_from([0.0, 1.0, 1.5, 3.0]), label="tol")
    return p, maps, tol, default_thresholds(draw(st.integers(1, 33), label="n_thresholds"))


@settings(max_examples=200, deadline=None)
@given(case=score_case())
def test_matched_counts_never_rise_with_the_threshold(case):
    p, maps, tol, thresholds = case
    counts = _counts_at_thresholds(p, AnnotationSet(maps), thresholds, tol)
    assert (np.diff(counts, axis=0) <= 0).all()


@settings(max_examples=200, deadline=None)
@given(case=score_case(), pick=st.integers(0, 32))
def test_counts_at_a_threshold_do_not_depend_on_the_grid(case, pick):
    p, maps, tol, thresholds = case
    t = thresholds[pick % len(thresholds)]
    swept = _counts_at_thresholds(p, AnnotationSet(maps), thresholds, tol)
    assert np.array_equal(swept[thresholds.index(t)],
                          _counts_at_thresholds(p, AnnotationSet(maps), [t], tol)[0])


def assert_criteria_counts_equal_own_searches(p, maps, fraction, n_thresholds):
    """eval_criteria's correctness and thickness count rows, which share one
    pair search, against ``_counts_at_thresholds`` of the thinned and the
    raw map, each with its own search."""
    counts = {}

    def summarize_recording(c, thresholds, criterion):
        counts[criterion] = c
        return summarize(c, thresholds, criterion)

    ann = AnnotationSet(maps)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evalbench, "summarize", summarize_recording)
        eval_criteria([p], [ann], fraction, n_thresholds)
    thresholds = default_thresholds(n_thresholds)
    tol = tolerance_pixels(p.shape[0], p.shape[1], fraction)
    assert np.array_equal(counts["correctness"][0],
                          _counts_at_thresholds(nms_thin(p), ann, thresholds, tol))
    assert np.array_equal(counts["thickness"][0], _counts_at_thresholds(p, ann, thresholds, tol))


@settings(max_examples=200, deadline=None)
@given(case=score_case())
def test_criteria_sharing_one_pair_search_count_as_their_own_searches(case):
    p, maps, tol, thresholds = case
    fraction = max(tol, 0.5) / math.hypot(*p.shape)
    assert_criteria_counts_equal_own_searches(p, maps, fraction, len(thresholds))


@pytest.mark.parametrize("shape", [(6, 7), (1, 6), (6, 1)])
def test_criteria_sharing_one_pair_search_on_zero_maps(shape):
    gt = np.zeros(shape)
    gt.flat[::3] = 1.0
    assert_criteria_counts_equal_own_searches(np.zeros(shape), [gt], 0.2, 9)


# ---------------------------------------------------------------------------
# summarize


def test_precision_recall_f_empty_set_rules():
    # (matched detected, detected, matched GT, GT) -> (precision, recall, f)
    rows = {(0, 0, 0, 0): (1.0, 1.0, 1.0),    # nothing detected, no GT
            (0, 0, 0, 5): (1.0, 0.0, 0.0),    # nothing detected
            (0, 3, 0, 0): (0.0, 1.0, 0.0),    # no GT
            (0, 3, 0, 5): (0.0, 0.0, 0.0),    # P + R = 0
            (1, 2, 3, 4): (0.5, 0.75, 0.6)}
    precision, recall, f = precision_recall_f(list(rows))
    assert list(zip(precision.tolist(), recall.tolist(), f.tolist())) == list(rows.values())


def test_summarize_perfect_detection_saturates():
    m = ring_mask()
    thresholds = default_thresholds(5)
    rows = [pr_at_threshold(m.astype(float), AnnotationSet([m]), t, 1.0, False)
            for t in thresholds]
    scores, curve = summarize([rows], thresholds)
    assert scores.ods == 1.0 and scores.ois == 1.0 and scores.ap == 1.0
    assert [r[0] for r in curve] == thresholds


def test_summarize_hand_computed_two_images():
    img1 = [(2, 4, 2, 2), (2, 2, 2, 2), (1, 1, 1, 2)]
    img2 = [(1, 2, 1, 2), (1, 1, 1, 2), (0, 0, 0, 2)]
    scores, curve = summarize([img1, img2], [0.25, 0.5, 0.75])
    # aggregated: t=.25 -> P=.5, R=.75; t=.5 -> P=1, R=.75; t=.75 -> P=1, R=.25
    assert scores.ods == pytest.approx(6 / 7, rel=1e-12)
    assert scores.ois == pytest.approx((1.0 + 2 / 3) / 2, rel=1e-12)
    assert scores.ap == pytest.approx(0.75, rel=1e-12)
    assert curve[0][1] == pytest.approx(0.5) and curve[0][2] == pytest.approx(0.75)


def test_summarize_count_scaling_invariance():
    img = np.array([[(2, 4, 2, 3), (1, 2, 1, 3)]])
    s1, _ = summarize(img, [0.25, 0.5])
    s2, _ = summarize(3 * img, [0.25, 0.5])
    assert s1.ods == pytest.approx(s2.ods, rel=1e-15)
    assert s1.ap == pytest.approx(s2.ap, rel=1e-15)


def random_counts(rng, n_images, n_thresholds):
    """(images, thresholds, 4) counts with matched <= total in each pair;
    now and then an image detects nothing or has no GT, and small totals
    make tied F values common."""
    top = int(rng.choice([3, 30]))
    detected = rng.integers(0, top, (n_images, n_thresholds))
    gt = np.repeat(rng.integers(0, top, (n_images, 1)), n_thresholds, axis=1)
    detected[rng.random(n_images) < 0.2] = 0
    gt[rng.random(n_images) < 0.2] = 0
    matched_detected = rng.integers(0, detected + 1)
    matched_gt = rng.integers(0, gt + 1)
    return np.stack([matched_detected, detected, matched_gt, gt], axis=-1)


def test_summarize_equals_scalar_loops():
    rng = np.random.default_rng(8)
    for trial in range(300):
        thresholds = default_thresholds(int(rng.integers(1, 10)))
        counts = random_counts(rng, int(rng.integers(1, 40)), len(thresholds))
        scores, curve = summarize(counts, thresholds)
        want = summarize_loops(counts.tolist(), thresholds)
        assert (scores.ods, scores.ois, scores.ap, curve) == want, f"trial {trial}"
        assert all(type(v) is float for row in curve for v in row)


def test_summarize_ods_at_least_any_shared_threshold_f():
    rng = np.random.default_rng(3)
    thresholds = default_thresholds(7)
    counts = random_counts(rng, 4, len(thresholds))
    scores, curve = summarize(counts, thresholds)
    for _, _, _, f in curve:
        assert scores.ods >= f - 1e-15


def test_summarize_requires_counts_shaped_images_thresholds_4():
    thresholds = default_thresholds(3)
    for shape in [(0, 3, 4), (2, 2, 4), (2, 3, 3), (2, 3), (1, 2, 3, 4)]:
        with pytest.raises(ContractError, match="counts must be shaped"):
            summarize(np.ones(shape, dtype=np.int64), thresholds)
    with pytest.raises(ContractError, match="counts must be shaped"):
        summarize(np.ones((2, 0, 4), dtype=np.int64), [])


def test_average_precision_degenerate_cases():
    assert average_precision([(1.0, 1.0)]) == 1.0
    assert average_precision([(0.0, 1.0)]) == 0.0


# ---------------------------------------------------------------------------
# three criteria


def stable_outline(n=24):
    yy, xx = np.mgrid[:n, :n]
    rr = np.hypot(yy - n / 2, xx - n / 2)
    band = ((rr > n / 4) & (rr < n / 4 + 1.4)).astype(float)
    return np.where(nms_thin(band) > 0, 1.0, 0.0)


def test_eval_criteria_perfect_thin_detection():
    pred = stable_outline()
    ann = AnnotationSet([pred])
    report = eval_criteria([pred], [ann], base_fraction=0.05)
    for res in report.results():
        assert res.scores.ods == 1.0
        assert res.scores.ois == 1.0
        assert res.scores.ap == 1.0


def test_eval_criteria_thick_detection_penalized_in_thickness():
    line = np.zeros((24, 24))
    line[12, 4:20] = 1.0
    ann = AnnotationSet([line])
    thick = np.zeros((24, 24))
    thick[11:14, 4:20] = 1.0
    report = eval_criteria([thick], [ann], base_fraction=0.05)
    assert report.thickness.scores.ods < report.correctness.scores.ods
    # thinning erodes the bar ends, so one-to-one matching caps recall below 1
    assert report.correctness.scores.ods > 0.85


def test_eval_criteria_localness_never_exceeds_correctness():
    rng = np.random.default_rng(4)
    for _ in range(15):
        p = gaussian_filter(rng.random((20, 20)), 1.0)
        p = (p - p.min()) / (p.max() - p.min())
        ann = AnnotationSet([(rng.random((20, 20)) > 0.85).astype(float)])
        report = eval_criteria([p], [ann], base_fraction=0.05, n_thresholds=9)
        assert report.localness.scores.ods <= report.correctness.scores.ods + 1e-12


def test_eval_criteria_validation():
    with pytest.raises(ContractError):
        eval_criteria([], [], 0.05)
    m = ring_mask()
    with pytest.raises(ShapeError):
        eval_criteria([m.astype(float)], [AnnotationSet([np.zeros((5, 5))])], 0.05)


# ---------------------------------------------------------------------------
# emission


def test_pr_curve_csv_format():
    csv = pr_curve_csv([(0.25, 0.5, 0.75, 0.6), (0.5, 1 / 3, 2 / 3, 0.444444)])
    lines = csv.strip().split("\n")
    assert lines[0] == "threshold,precision,recall,f"
    assert lines[1] == "0.25,0.5,0.75,0.6"
    assert lines[2].startswith("0.5,0.333333,0.666667,")


def test_score_block_keys():
    pred = stable_outline()
    ann = AnnotationSet([pred])
    report = eval_criteria([pred], [ann], base_fraction=0.05, n_thresholds=5)
    block = score_block(report)
    for key in ("ods_c", "ois_c", "ap_c", "ods_l", "ois_l", "ap_l", "ods_t", "ois_t", "ap_t"):
        assert f"{key}=1" in block


def test_fmt_six_significant_digits():
    assert fmt(0.123456789) == "0.123457"
    assert fmt(1.0) == "1"
    assert fmt(4.337) == "4.337"
