#!/usr/bin/env python3
"""Build the default refinement network, run single- and multi-scale
prediction on a synthetic image, and trace the memory peak of one predict at
twice BSDS size."""

import tracemalloc

import numpy as np

from crispedge import (
    ScaleSet,
    build_refine_net,
    default_topology,
    gen_synthetic,
    predict,
    predict_multiscale,
)
from crispedge.tensorcore import bilinear_resize, no_grad

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

# memory at BSDS size: multiscale testing at scale 2 runs the network on a
# 642x962 input; one float32 predict there holds a few full-resolution
# 8-channel maps at once, every feature freed as its last reader sums it
bsds = gen_synthetic(1, (321, 481), annotators=3, jitter_px=1.0, seed=0)[0].image
with no_grad():
    big = bilinear_resize(bsds, 642, 962)
tracemalloc.start()
predict(net, big)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(f"traced peak of one predict on the 2x-upscaled {bsds.shape[2]}x{bsds.shape[3]} "
      f"image ({big.shape[2]}x{big.shape[3]}): {peak / 2**20:.1f} MiB")
