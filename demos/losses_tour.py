#!/usr/bin/env python3
"""Walk through the loss family on a tiny hand-made example."""

import math

import numpy as np

from crispedge import (
    AdaptiveLossState,
    AnnotationSet,
    Tensor,
    adaptive_loss,
    backward,
    batch_weight_maps,
    soft_ce,
    soft_dice,
)

# Three annotators drew almost the same vertical line on an 8x10 canvas.
# Annotator 2 was one pixel off for two rows.
base = np.zeros((8, 10))
base[1:7, 4] = 1.0
shifted = np.zeros((8, 10))
shifted[1:5, 4] = 1.0
shifted[5:7, 5] = 1.0

ann = AnnotationSet([base, base, shifted])
wmap = batch_weight_maps([ann])
print("consensus weights along row 5:", wmap.w[0, 0, 5])
print(f"negative-pixel fraction beta = {wmap.beta:.4f}")

# A prediction that is confident near the line and flat elsewhere.
rng = np.random.default_rng(0)
p = np.full((8, 10), 0.08)
p[1:7, 4] = 0.9
p += rng.uniform(-0.02, 0.02, p.shape)
pred = Tensor(p[None, None])

print()
print(f"soft_ce (consensus weights)  : {soft_ce(pred, wmap).item():.6f}")
print(f"soft_dice (consensus)        : {soft_dice(pred, wmap).item():.6f}")

# soft_dice is bounded below by 1 and touches the bound only when the
# prediction equals the weight map exactly.
perfect = Tensor(wmap.w.copy())
print(f"soft_dice at p == W          : {soft_dice(perfect, wmap).item():.12f}")

# The adaptive combination starts at unit scales, where it is just
# SCE + 0.1 * SD + log 2, and exposes the scales as trainable parameters.
awl = AdaptiveLossState()
total = adaptive_loss(pred, wmap, awl)
sce_v = soft_ce(pred, wmap).item()
sd_v = soft_dice(pred, wmap).item()
print()
print(f"adaptive loss at kappa=tau=1 : {total.item():.6f}")
print(f"SCE + 0.1*SD + log 2         : {sce_v + 0.1 * sd_v + math.log(2):.6f}")

backward(total)
g = float(awl.log_kappa.grad.ravel()[0])
print(f"d(loss)/d(log kappa)         : {g:.6f}")
print(f"closed form -2*SCE + 1/2     : {-2 * sce_v + 0.5:.6f}")
