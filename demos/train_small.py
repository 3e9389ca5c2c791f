#!/usr/bin/env python3
"""Train the refinement network end to end on a small synthetic set.

Scaled down from the standard 200-sample recipe so it finishes in about a
minute; expect rough scores at this size, the point is the moving parts.
"""

import dataclasses

from crispedge import TrainConfig, gen_synthetic, train
from crispedge.trainer import holdout_split

data = gen_synthetic(30, (48, 48), annotators=3, jitter_px=1.0, seed=2)
print(f"{len(data)} samples, {data[0].annotations.n} annotators each")

config = TrainConfig(
    epochs=8,
    batch_size=10,
    loss_mode="sce+sd",   # fixed 1:1 mix of consensus CE and soft dice
    lr_decay_epochs=(6,),
    seed=0,
)
net, report = train(data, config=config)

print()
print("epoch  mean loss")
for e, v in enumerate(report.loss_trace):
    print(f"{e:5d}  {v:.4f}")

print()
held = holdout_split([s.id for s in data], config.holdout_fraction)
print(f"holdout ids: {', '.join(sorted(held))}")
scores = report.scores
print(f"holdout ODS-C {scores.correctness.scores.ods:.4f}  "
      f"ODS-L {scores.localness.scores.ods:.4f}  "
      f"ODS-T {scores.thickness.scores.ods:.4f}")

# the adaptive mode also records its learned scales per epoch
awl_config = dataclasses.replace(config, loss_mode="awl", epochs=4)
_, awl_report = train(data, config=awl_config)
print()
print("adaptive run, per-epoch scales:")
for e, (k, t) in enumerate(zip(awl_report.kappa_trace, awl_report.tau_trace)):
    print(f"  epoch {e}: kappa {k:.4f}  tau {t:.4f}")
