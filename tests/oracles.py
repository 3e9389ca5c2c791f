"""Independent reference routines the test suite checks the library against.

Everything here is written the slow, obvious way (scalar loops, explicit
formulas) on purpose: these functions must not share code or vectorization
tricks with the implementations they judge.
"""

import itertools
import math

import numpy as np


def conv2d_loops(x, k, stride=1, padding=0):
    """Direct nested-loop cross-correlation. x: (B,C,H,W), k: (O,C,KH,KW)."""
    b, c, h, w = x.shape
    o, ck, kh, kw = k.shape
    assert c == ck
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + w] = x
    out = np.zeros((b, o, oh, ow))
    for bi in range(b):
        for oi in range(o):
            for y in range(oh):
                for xx in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[bi, ci, y * stride + i, xx * stride + j] * k[oi, ci, i, j]
                    out[bi, oi, y, xx] = acc
    return out


def conv2d_grads_loops(x, k, g, stride=1, padding=0):
    """Gradients (dx, dk) of sum(g * conv2d(x, k)) by nested loops: each
    output pixel hands g times the kernel tap to the input pixel it read, and
    g times that input pixel to the tap."""
    b, c, h, w = x.shape
    o, ck, kh, kw = k.shape
    assert c == ck
    _, _, oh, ow = g.shape
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + w] = x
    dxp = np.zeros_like(xp)
    dk = np.zeros_like(k, dtype=float)
    for bi in range(b):
        for oi in range(o):
            for y in range(oh):
                for xx in range(ow):
                    gv = g[bi, oi, y, xx]
                    for ci in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                yy, xj = y * stride + i, xx * stride + j
                                dxp[bi, ci, yy, xj] += gv * k[oi, ci, i, j]
                                dk[oi, ci, i, j] += gv * xp[bi, ci, yy, xj]
    return dxp[:, :, padding:padding + h, padding:padding + w], dk


def bilinear_scalar(img, th, tw):
    """Closed-form bilinear resize of a 2-D map, half-pixel-center convention."""
    h, w = img.shape
    out = np.zeros((th, tw))
    for ty in range(th):
        sy = (ty + 0.5) * h / th - 0.5
        sy = min(max(sy, 0.0), h - 1.0)
        y0 = int(math.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for tx in range(tw):
            sx = (tx + 0.5) * w / tw - 0.5
            sx = min(max(sx, 0.0), w - 1.0)
            x0 = int(math.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
            bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
            out[ty, tx] = top * (1 - fy) + bot * fy
    return out


FD_STEP = 1e-5


def fd_gradient(f, arr, indices=None, step=FD_STEP):
    """Central finite differences of scalar-valued f at arr.

    Returns a dict {flat index: df/dx_index}. Checks every element unless
    ``indices`` restricts the set. ``arr`` is never mutated in place from the
    caller's view (a scratch copy is used).
    """
    flat = arr.reshape(-1)
    if indices is None:
        indices = range(flat.size)
    grads = {}
    for i in indices:
        keep = flat[i]
        flat[i] = keep + step
        hi = f()
        flat[i] = keep - step
        lo = f()
        flat[i] = keep
        grads[i] = (hi - lo) / (2 * step)
    return grads


def rel_err(a, b, floor=1e-6):
    return abs(a - b) / max(abs(a), abs(b), floor)


def soft_ce_loops(p, w, clamp):
    """Consensus-weighted, count-normalized cross-entropy, scalar loop."""
    pf = p.reshape(-1)
    wf = w.reshape(-1)
    n = wf.size
    n_pos = int(sum(1 for v in wf if v > 0))
    n_neg = n - n_pos
    beta = n_neg / n
    pos_term = 0.0
    neg_term = 0.0
    for i in range(n):
        pi = min(max(pf[i], clamp), 1.0 - clamp)
        if wf[i] > 0:
            pos_term += wf[i] * math.log(pi)
        else:
            neg_term += math.log(1.0 - pi)
    loss = 0.0
    if n_pos > 0:
        loss += -(beta / n_pos) * pos_term
    if n_neg > 0:
        loss += -((1.0 - beta) / n_neg) * neg_term
    return loss


def soft_dice_loops(p, w, eps):
    pf = p.reshape(-1)
    wf = w.reshape(-1)
    num = eps
    den = eps
    for i in range(pf.size):
        num += pf[i] * pf[i] + wf[i] * wf[i]
        den += 2.0 * pf[i] * wf[i]
    return num / den


def sgd_scalar(p0, grads, lr, momentum, wd):
    """Classical-momentum SGD trajectory for one scalar parameter.

    ``grads`` lists the raw gradient at each step; returns the parameter
    value after every step.
    """
    p = p0
    v = 0.0
    out = []
    for g in grads:
        v = momentum * v + g + wd * p
        p = p - lr * v
        out.append(p)
    return out


def thin_loops(mask):
    """Two-subiteration thinning by pixel loops. Around each set pixel the
    ring p2..p9 runs north, north-east, east and on clockwise, with pixels
    outside the mask read as 0. A pixel is deleted when 2 <= B <= 6 set ring
    pixels, A == 1 0->1 transitions around the ring (p9 back to p2
    included), and the subiteration's two products vanish: p2*p4*p6 and
    p4*p6*p8 in the first, p2*p4*p8 and p2*p6*p8 in the second. Each
    subiteration flags every pixel first and deletes them together; the two
    repeat until neither deletes anything."""
    arr = np.asarray(mask, dtype=bool)
    h, w = arr.shape
    img = arr.tolist()

    def at(y, x):
        return 1 if 0 <= y < h and 0 <= x < w and img[y][x] else 0

    changed = True
    while changed:
        changed = False
        for step in (0, 1):
            flagged = []
            for y in range(h):
                for x in range(w):
                    if not img[y][x]:
                        continue
                    p2, p3, p4, p5 = at(y - 1, x), at(y - 1, x + 1), at(y, x + 1), at(y + 1, x + 1)
                    p6, p7, p8, p9 = at(y + 1, x), at(y + 1, x - 1), at(y, x - 1), at(y - 1, x - 1)
                    ring = [p2, p3, p4, p5, p6, p7, p8, p9, p2]
                    b = sum(ring[:8])
                    a = sum(1 for k in range(8) if ring[k] == 0 and ring[k + 1] == 1)
                    if step == 0:
                        products = p2 * p4 * p6 + p4 * p6 * p8
                    else:
                        products = p2 * p4 * p8 + p2 * p6 * p8
                    if 2 <= b <= 6 and a == 1 and products == 0:
                        flagged.append((y, x))
            for y, x in flagged:
                img[y][x] = False
            changed = changed or bool(flagged)
    return np.array(img, dtype=bool).reshape(h, w)


def _disk_edges(left_pts, right_pts, tol):
    """Per left point, the indices of the right points within Euclidean
    distance ``tol``, ascending."""
    return [[j for j, (ry, rx) in enumerate(right_pts) if math.hypot(ly - ry, lx - rx) <= tol]
            for (ly, lx) in left_pts]


def augmenting_path_matched(adj, order):
    """Kuhn's algorithm: visit the left vertices in ``order``, each one kept
    matched once an augmenting path from it is found, and return the set of
    matched left vertices. ``adj`` lists each left vertex's neighbors."""
    match_right = {}

    def try_augment(i, visited):
        for j in adj[i]:
            if j in visited:
                continue
            visited.add(j)
            if j not in match_right or try_augment(match_right[j], visited):
                match_right[j] = i
                return True
        return False

    return {i for i in order if try_augment(i, set())}


def priority_matched_loops(lengths, indices, n_gt, value):
    """The greedy matched rows of a neighbor graph given as per-row edge
    counts and the concatenated column indices of all rows: rows of positive
    value are visited by value, highest first, ties in row order, and Kuhn's
    algorithm keeps each one that an augmenting path can add. ``n_gt`` is the
    column count. Returns the set of kept rows."""
    adj = []
    pos = 0
    for n in lengths:
        adj.append([int(j) for j in indices[pos:pos + n]])
        pos += n
    assert pos == len(indices) and all(0 <= j < n_gt for row in adj for j in row)
    order = sorted((i for i in range(len(adj)) if value[i] > 0), key=lambda i: (-value[i], i))
    return augmenting_path_matched(adj, order)


def max_matching_loops(left_pts, right_pts, tol):
    """Maximum-cardinality matching by augmenting paths (Kuhn's algorithm).

    left_pts/right_pts are lists of (row, col); an edge exists when the
    Euclidean distance is <= tol. Returns the matched-pair count.
    """
    return len(augmenting_path_matched(_disk_edges(left_pts, right_pts, tol),
                                       range(len(left_pts))))


def neighbor_graph(det_pts, gt_pts, tol_px):
    """KD-tree pair search: edges from each of det_pts, in order, to the
    gt_pts within ``tol_px``, as per-row edge counts and the ascending column
    indices of all rows."""
    from scipy.spatial import cKDTree

    if len(det_pts) == 0 or len(gt_pts) == 0:
        return np.zeros(len(det_pts), dtype=np.int64), np.empty(0, dtype=np.int64)
    lists = cKDTree(gt_pts).query_ball_point(det_pts, r=tol_px, return_sorted=True)
    lengths = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    indices = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64,
                          count=int(lengths.sum()))
    return lengths, indices


def priority_counts(p, gt_maps, t, tol):
    """Benchmark counts at threshold ``t`` by the priority rule, one fresh
    brute-force pair search and matching per annotator.

    The detections ``p >= t`` are visited by value, highest first, ties in
    row-major order, and Kuhn's algorithm keeps each one that an augmenting
    path can add to the matching. Recall sums the matches over annotators; a
    detected pixel counts once toward precision however many annotators match
    it. Returns (matched_detected, total_detected, matched_gt, total_gt).
    """
    det_pts = [tuple(q) for q in np.argwhere(p >= t)]
    order = sorted(range(len(det_pts)), key=lambda i: (-p[det_pts[i]], i))
    matched_union = set()
    matched_gt = 0
    total_gt = 0
    for gt in gt_maps:
        gt_pts = [tuple(q) for q in np.argwhere(gt > 0.5)]
        total_gt += len(gt_pts)
        rows = augmenting_path_matched(_disk_edges(det_pts, gt_pts, tol), order)
        matched_gt += len(rows)
        matched_union |= rows
    return len(matched_union), len(det_pts), matched_gt, total_gt


def summarize_loops(counts, thresholds):
    """ODS, OIS, AP and the PR curve of per-image count rows, pooled by
    scalar loops: ``counts[i][k]`` is image i's (matched detected, detected,
    matched GT, GT) at ``thresholds[k]``. Precision is 1 with nothing
    detected, recall 1 with no GT, and F 0 when both are 0. Returns
    (ods, ois, ap, curve) with (threshold, precision, recall, f) curve rows.
    """

    def prf(matched_detected, detected, matched_gt, gt):
        p = matched_detected / detected if detected else 1.0
        r = matched_gt / gt if gt else 1.0
        return p, r, (2.0 * p * r / (p + r) if p + r > 0.0 else 0.0)

    curve = []
    for k, t in enumerate(thresholds):
        pooled = [sum(image[k][j] for image in counts) for j in range(4)]
        curve.append((t, *prf(*pooled)))
    ods = max(f for _, _, _, f in curve)
    ois = sum(max(prf(*row)[2] for row in image) for image in counts) / len(counts)
    # the area under the best precision at or above each recall
    best_at = {}
    for _, p, r, _ in curve:
        best_at[r] = max(p, best_at.get(r, 0.0))
    recalls = sorted(best_at, reverse=True)
    ap = best = 0.0
    for r, lower in zip(recalls, recalls[1:] + [0.0]):
        best = max(best, best_at[r])
        ap += (r - lower) * best
    return ods, ois, ap, curve
