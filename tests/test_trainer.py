import numpy as np
import pytest

from crispedge import trainer
from crispedge.data import gen_synthetic
from crispedge.errors import ContractError, ShapeError, TrainingError
from crispedge.network import build_refine_net, default_topology
from crispedge.tensorcore import OptimizerConfig
from crispedge.trainer import (
    TrainConfig,
    ablation_csv,
    ablation_run,
    holdout_split,
    loss_trace_csv,
    toy_dataset,
    train,
)


def tiny_set(n=12, size=(32, 32), jitter=0.5, seed=1):
    return gen_synthetic(n, size, 2, jitter, seed=seed)


def params_equal(a, b):
    pa, pb = a.params(), b.params()
    return len(pa) == len(pb) and all(np.array_equal(x.data, y.data) for x, y in zip(pa, pb))


def test_epochs_zero_returns_fresh_network():
    ds = tiny_set(4)
    net, report = train(ds, config=TrainConfig(epochs=0, seed=3))
    fresh = build_refine_net(default_topology(), seed=3)
    assert params_equal(net, fresh)
    assert report.loss_trace == []


def test_training_holds_one_step_graph(traced_peak):
    # one batch-10 step on 64x64 samples builds about 61 MB of node data, and
    # one conv's backward scratch adds under 40 MB more; with the previous
    # step's graph, a padded copy of each conv input and every used interior
    # gradient held as well, the peak is near 238 MiB
    ds = gen_synthetic(20, (64, 64), 3, 1.0, 0)
    with traced_peak() as traced:
        train(ds, config=TrainConfig(batch_size=10, epochs=2, holdout_fraction=0.0))
    assert traced.peak < 128 * 2**20


def test_training_is_deterministic():
    ds = tiny_set()
    cfg = TrainConfig(batch_size=4, epochs=2, loss_mode="sce", seed=5)
    net1, rep1 = train(ds, config=cfg)
    net2, rep2 = train(ds, config=cfg)
    assert rep1.loss_trace == rep2.loss_trace
    assert params_equal(net1, net2)


def test_loss_decreases():
    ds = tiny_set(16)
    _, report = train(ds, config=TrainConfig(batch_size=4, epochs=12, loss_mode="sce",
                                             seed=0, holdout_fraction=0.0))
    trace = report.loss_trace
    q = len(trace) // 4
    assert np.median(trace[-q:]) < np.median(trace[:q])


def test_divergence_reports_epoch_and_batch():
    ds = tiny_set(8)
    cfg = TrainConfig(batch_size=4, epochs=4, loss_mode="sce", seed=0,
                      optimizer=OptimizerConfig(learning_rate=1e12))
    with pytest.raises(TrainingError, match=r"epoch \d+, batch \d+"):
        train(ds, config=cfg)


def test_non_finite_parameters_after_last_step_rejected(monkeypatch):
    import crispedge.trainer as trainer_mod

    real_step = trainer_mod.sgd_step

    def poisoned_step(params, opt):
        real_step(params, opt)
        params[0].data[0, 0, 0, 0] = np.nan

    monkeypatch.setattr(trainer_mod, "sgd_step", poisoned_step)
    cfg = TrainConfig(batch_size=4, epochs=1, loss_mode="sce", seed=0, holdout_fraction=0.0)
    with pytest.raises(TrainingError, match="after the last step of epoch 0"):
        train(tiny_set(4), config=cfg)


def test_every_mode_trains_one_epoch():
    ds = tiny_set(6)
    for mode in ("sce", "sd", "sce+sd", "awl"):
        _, report = train(ds, config=TrainConfig(batch_size=3, epochs=1, loss_mode=mode,
                                                 seed=1, holdout_fraction=0.0))
        assert len(report.loss_trace) == 1
        assert np.isfinite(report.loss_trace[0])


def test_awl_traces_recorded_and_positive():
    ds = tiny_set(8)
    _, report = train(ds, config=TrainConfig(batch_size=4, epochs=3, loss_mode="awl",
                                             seed=0, holdout_fraction=0.0))
    assert len(report.kappa_trace) == 3
    assert len(report.tau_trace) == 3
    assert all(k > 0 for k in report.kappa_trace)
    assert all(t > 0 for t in report.tau_trace)
    assert report.kappa_trace[-1] != 1.0  # gradients reached the weights


def test_non_awl_has_no_weight_traces():
    ds = tiny_set(4)
    _, report = train(ds, config=TrainConfig(batch_size=4, epochs=1, loss_mode="sce",
                                             seed=0, holdout_fraction=0.0))
    assert report.kappa_trace == []
    assert report.tau_trace == []


def test_lr_decay_changes_trajectory():
    ds = tiny_set(8)
    base = dict(batch_size=4, epochs=2, loss_mode="sce", seed=4, holdout_fraction=0.0)
    net_a, _ = train(ds, config=TrainConfig(lr_decay_epochs=(1,), **base))
    net_b, _ = train(ds, config=TrainConfig(lr_decay_epochs=(99,), **base))
    assert not params_equal(net_a, net_b)


def test_holdout_split_properties():
    ids = [f"syn-0-{i:04d}" for i in range(200)]
    held = holdout_split(ids, 0.2)
    assert 0.10 * len(ids) <= len(held) <= 0.30 * len(ids)
    assert held == holdout_split(ids, 0.2)
    # membership is per-id: growing the set never flips an existing id
    held_small = holdout_split(ids[:50], 0.2)
    assert held_small == {i for i in held if i in set(ids[:50])}


def test_holdout_scores_present():
    ds = tiny_set(12)
    _, report = train(ds, config=TrainConfig(batch_size=4, epochs=1, loss_mode="sce", seed=0))
    assert report.scores is not None
    assert report.scores.correctness.scores.ods >= 0.0


def test_train_validation():
    with pytest.raises(ContractError):
        train([], config=TrainConfig(epochs=0))
    mixed = tiny_set(2, size=(32, 32)) + tiny_set(2, size=(48, 48), seed=9)
    with pytest.raises(ShapeError):
        train(mixed, config=TrainConfig(epochs=0))
    ds = tiny_set(2)
    with pytest.raises(ContractError):
        train(ds, config=TrainConfig(holdout_fraction=0.999999))


def test_config_validation():
    for mode in ("dice", "ce"):
        with pytest.raises(ContractError):
            TrainConfig(loss_mode=mode)
    with pytest.raises(ContractError):
        TrainConfig(batch_size=0)
    with pytest.raises(ContractError):
        TrainConfig(holdout_fraction=1.0)
    with pytest.raises(ContractError):
        TrainConfig(epochs=-1)
    with pytest.raises(ContractError):
        TrainConfig(lr_decay_epochs=(0,))


def test_ablation_rows_and_equivalence():
    ds = tiny_set(10)
    cfg = TrainConfig(batch_size=5, epochs=1, seed=3)
    rows = ablation_run(ds, modes=("sce", "sce+sd"), config=cfg)
    assert [r.mode for r in rows] == ["sce", "sce+sd"]
    # each row scores the network that training in that mode alone gives
    _, alone = train(ds, config=TrainConfig(batch_size=5, epochs=1, seed=3, loss_mode="sce+sd"))
    scores = alone.scores
    assert (rows[1].ods_c, rows[1].ods_l, rows[1].ods_t) == (
        scores.correctness.scores.ods, scores.localness.scores.ods, scores.thickness.scores.ods)
    again = ablation_run(ds, modes=("sce", "sce+sd"), config=cfg)
    assert rows == again
    csv = ablation_csv(rows)
    lines = csv.strip().split("\n")
    assert lines[0] == "mode,ods_c,ods_l,ods_t"
    assert lines[1].startswith("sce,")


def test_ablation_checks_the_holdout_before_training(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("train was called")

    monkeypatch.setattr(trainer, "train", no_training)
    with pytest.raises(ContractError, match="non-empty holdout"):
        ablation_run(tiny_set(4), config=TrainConfig(epochs=1, holdout_fraction=0.0))
    # a bad mode after good ones is caught before the good ones train
    with pytest.raises(ContractError, match="bogus"):
        ablation_run(tiny_set(10), modes=("sce", "sd", "bogus"),
                     config=TrainConfig(epochs=1, holdout_fraction=0.5))


def test_loss_trace_csv_shapes():
    ds = tiny_set(4)
    _, rep = train(ds, config=TrainConfig(batch_size=4, epochs=2, loss_mode="awl",
                                          seed=0, holdout_fraction=0.0))
    csv = loss_trace_csv(rep)
    lines = csv.strip().split("\n")
    assert lines[0] == "epoch,loss,kappa,tau"
    assert len(lines) == 3
    _, rep2 = train(ds, config=TrainConfig(batch_size=4, epochs=2, loss_mode="sce",
                                           seed=0, holdout_fraction=0.0))
    assert loss_trace_csv(rep2).startswith("epoch,loss\n0,")


def test_toy_dataset_shape():
    ds = toy_dataset(count=2, size=(24, 24), annotators=2, jitter_px=0.5, seed=1)
    assert len(ds) == 2
    assert ds[0].image.data.shape == (1, 1, 24, 24)
    assert ds[0].annotations.n == 2
