#!/usr/bin/env python3
"""Build the default refinement network and run single- and multi-scale
prediction on a synthetic image."""

import numpy as np

from crispedge import (
    ScaleSet,
    build_refine_net,
    default_topology,
    gen_synthetic,
    predict,
    predict_multiscale,
)

topo = default_topology()
print("encoder stages :", [(s.channels, s.stride) for s in topo.encoder_stages])
print("refine blocks  :", [spec.name for spec in topo.refine_blocks], "in build order")

net = build_refine_net(topo, seed=0)
n_params = sum(p.data.size for p in net.params())
print(f"parameter count: {n_params}")

# one synthetic sample; the untrained net already produces a valid
# probability map, it is just not a useful one yet
sample = gen_synthetic(1, (48, 48), annotators=2, jitter_px=1.0, seed=7)[0]
img = sample.image

pm = predict(net, img)
print()
print(f"single-scale prediction: shape {pm.shape}, "
      f"range [{pm.min():.4f}, {pm.max():.4f}], mean {pm.mean():.4f}")

# multi-scale: run at half, native, and double resolution, then average
# the maps after resizing back to the native grid
pm3 = predict_multiscale(net, img, ScaleSet((0.5, 1.0, 2.0)))
print(f"three-scale prediction : shape {pm3.shape}, "
      f"range [{pm3.min():.4f}, {pm3.max():.4f}], mean {pm3.mean():.4f}")

diff = np.abs(pm - pm3).mean()
print(f"mean |single - multi|  : {diff:.4f}")
