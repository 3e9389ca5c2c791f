#!/usr/bin/env python3
"""Check a few analytic gradients against central finite differences.

The same audit runs over every op and a full network composite via
``crispedge gradcheck``; this script applies its central differences
(``numeric_grad``, ``rel_err``) to two cases small enough to read.
"""

import numpy as np

from crispedge import AnnotationSet, Tensor, backward, batch_weight_maps, soft_ce
from crispedge.gradcheck import numeric_grad, rel_err
from crispedge.tensorcore import conv2d, global_sum, square

rng = np.random.default_rng(3)

# case 1: sum of squares of a strided convolution
x = Tensor(rng.standard_normal((1, 2, 6, 6)))
k = Tensor(rng.standard_normal((3, 2, 3, 3)))


def conv_loss():
    return global_sum(square(conv2d(x, k, stride=2, padding=1))).item()


loss = global_sum(square(conv2d(x, k, stride=2, padding=1)))
backward(loss)
print(f"conv2d input grad  rel err: {rel_err(x.grad, numeric_grad(conv_loss, x.data)):.3g}")
print(f"conv2d kernel grad rel err: {rel_err(k.grad, numeric_grad(conv_loss, k.data)):.3g}")

# case 2: the consensus cross-entropy through a sigmoid-free probability map
ann = (rng.random((6, 6)) > 0.7).astype(float)
ann[2, 1:5] = 1.0
wmap = batch_weight_maps([AnnotationSet([ann])])
p = Tensor(rng.uniform(0.1, 0.9, (1, 1, 6, 6)))


def ce_loss():
    return soft_ce(p, wmap).item()


backward(soft_ce(p, wmap))
print(f"soft_ce grad       rel err: {rel_err(p.grad, numeric_grad(ce_loss, p.data)):.3g}")

print()
print("all three should sit around 1e-9, far inside the 1e-4 audit limit")
