"""perfbench's train-64 workload times a traced replay of ``train`` and fails
when the replay's loss trace leaves the real one; this pins the replay to
``train`` in the default test run, so a drift in ``train`` or in the loss
signatures shows here first."""

import sys
from pathlib import Path

from crispedge.data import gen_synthetic
from crispedge.trainer import TrainConfig, train

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import mirrors
import spans


def test_traced_train_replay_matches_train():
    samples = gen_synthetic(4, (24, 24), 2, 0.5, seed=1)
    cfg = TrainConfig(batch_size=2, epochs=1, loss_mode="awl", holdout_fraction=0.0)
    loss_trace, _ = mirrors.train(spans.Tracer(), samples, cfg)
    assert loss_trace == train(samples, config=cfg)[1].loss_trace
