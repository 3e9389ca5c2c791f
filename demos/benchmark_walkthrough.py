#!/usr/bin/env python3
"""The benchmark from the ground up: tolerances, matching, the PR sweep,
and the three summary criteria."""

import numpy as np

from crispedge import (
    AnnotationSet,
    eval_criteria,
    gen_synthetic,
    match_boundaries,
    tolerance_pixels,
)
from crispedge.evalbench import pr_at_threshold, precision_recall_f

# The matching tolerance scales with the image diagonal.  On the classic
# 481x321 grid the 0.0075 fraction works out to about 4.3 px.
print(f"tolerance on 481x321 at 0.0075: {tolerance_pixels(481, 321, 0.0075):.3f} px")
print(f"tolerance on 64x64   at 0.0075: {tolerance_pixels(64, 64, 0.0075):.3f} px")

# One-to-one matching: a detected line one pixel off still matches fully
# at tolerance 1.5, and not at all at tolerance 0.5.
gt = np.zeros((9, 9))
gt[2:7, 3] = 1.0
det = np.zeros((9, 9))
det[2:7, 4] = 1.0
for tol in (0.5, 1.5):
    m, _ = match_boundaries(det, gt, tol)
    print(f"shifted line, tol {tol}: matched {m} of {int(gt.sum())}")

# PR at a single threshold against two annotators.  The count row holds
# matched detections, detections, matched annotator pixels and annotator
# pixels: recall pools the annotators, and a detected pixel counts toward
# precision only once.
a1 = np.zeros((9, 9)); a1[2:7, 3] = 1.0
a2 = np.zeros((9, 9)); a2[2:7, 5] = 1.0
pred = np.zeros((9, 9)); pred[2:7, 3] = 0.9; pred[2:7, 5] = 0.6
ann = AnnotationSet([a1, a2])
for t in (0.5, 0.7):
    p, r, f = precision_recall_f(pr_at_threshold(pred, ann, t, tol_px=1.0, post_process=False))
    print(f"t={t}: precision {p:.3f}  recall {r:.3f}  f {f:.3f}")

# Full report on a small jittered synthetic set, scoring the true outline
# itself as the detection.  Correctness and localness stay high because the
# annotators sit within a pixel or two of the truth; thickness is exact
# since the outline is already thin.
samples = gen_synthetic(8, (48, 48), annotators=3, jitter_px=1.0, seed=5)
preds = [s.true_boundary for s in samples]
anns = [s.annotations for s in samples]
report = eval_criteria(preds, anns, base_fraction=0.0075 * 4)
print()
print("true outline scored against jittered annotators:")
for res in report.results():
    print(f"  {res.scores.criterion:12s} ODS {res.scores.ods:.4f}  "
          f"OIS {res.scores.ois:.4f}  AP {res.scores.ap:.4f}")
