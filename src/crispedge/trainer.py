"""Training loop: batches synthetic samples, picks a loss mode, runs SGD with
a step decay, and scores the held-out split on the three-criterion benchmark.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .data import gen_synthetic
from .errors import ContractError, ShapeError, TrainingError
from .evalbench import eval_criteria, fmt
from .losses import (
    AdaptiveLossState,
    LossConfig,
    adaptive_loss,
    batch_weight_maps,
    combined_loss,
    soft_ce,
    soft_dice,
)
from .network import build_refine_net, predict
from .tensorcore import OptimizerConfig, Tensor, backward, sgd_step

# the two consensus losses and their two fusions; an ablation compares all four
LOSS_MODES = ("sce", "sd", "sce+sd", "awl")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 10
    epochs: int = 40
    loss_mode: str = "awl"
    optimizer: OptimizerConfig = OptimizerConfig()
    lr_decay_epochs: tuple = (30,)
    seed: int = 0
    holdout_fraction: float = 0.2
    eval_fraction: float = 0.05
    loss_config: LossConfig = LossConfig()

    def __post_init__(self):
        for name in ("holdout_fraction", "eval_fraction"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ContractError(f"epochs must be >= 0, got {self.epochs}")
        if self.loss_mode not in LOSS_MODES:
            raise ContractError(f"loss_mode must be one of {LOSS_MODES}, got '{self.loss_mode}'")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ContractError(f"holdout_fraction must be in [0, 1), got {self.holdout_fraction}")
        if self.eval_fraction <= 0.0:
            raise ContractError(f"eval_fraction must be positive, got {self.eval_fraction}")
        if any(e < 1 for e in self.lr_decay_epochs):
            raise ContractError("lr decay milestones must be >= 1")
        if self.seed < 0:
            raise ContractError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainReport:
    loss_trace: list = field(default_factory=list)
    kappa_trace: list = field(default_factory=list)
    tau_trace: list = field(default_factory=list)
    scores: object = None  # EvalReport on the holdout, None when it is empty


def holdout_split(ids, fraction):
    """Stable id-hash split; an id's side never depends on the rest of the set."""
    held = []
    for sid in ids:
        h = int(hashlib.md5(sid.encode("ascii")).hexdigest()[:8], 16)
        if h / 0x100000000 < fraction:
            held.append(sid)
    return frozenset(held)


def _batch_loss(pred, wmap, config, awl_state):
    mode = config.loss_mode
    if mode == "sce":
        return soft_ce(pred, wmap)
    if mode == "sd":
        return soft_dice(pred, wmap)
    if mode == "sce+sd":
        return combined_loss(pred, wmap)
    return adaptive_loss(pred, wmap, awl_state, config.loss_config)


def train(dataset, config=TrainConfig()):
    """Returns (trained network, TrainReport). Deterministic in config.seed."""
    if not dataset:
        raise ContractError("training needs a non-empty dataset")
    shapes = {s.annotations.spatial_shape for s in dataset}
    if len(shapes) != 1:
        raise ShapeError(f"training set mixes spatial shapes: {sorted(shapes)}")

    held = holdout_split([s.id for s in dataset], config.holdout_fraction)
    train_set = [s for s in dataset if s.id not in held]
    holdout_set = [s for s in dataset if s.id in held]
    if not train_set:
        raise ContractError("the holdout split consumed every sample")

    net = build_refine_net(seed=config.seed)
    awl_state = AdaptiveLossState() if config.loss_mode == "awl" else None
    params = net.params() + (awl_state.params() if awl_state else [])

    report = TrainReport()
    opt = config.optimizer
    for epoch in range(config.epochs):
        if epoch in config.lr_decay_epochs:
            opt = dataclasses.replace(opt, learning_rate=opt.learning_rate * opt.lr_decay)
        order = np.random.default_rng([config.seed, epoch]).permutation(len(train_set))
        epoch_losses = []
        for b, start in enumerate(range(0, len(order), config.batch_size)):
            batch = [train_set[i] for i in order[start:start + config.batch_size]]
            images = Tensor(np.concatenate([s.image.data for s in batch], axis=0))
            wmap = batch_weight_maps([s.annotations for s in batch])
            pred = net.forward(images)
            loss = _batch_loss(pred, wmap, config, awl_state)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss {value} at epoch {epoch}, batch {b}")
            backward(loss)
            sgd_step(params, opt)
            epoch_losses.append(value)
            del pred, loss  # the next forward must not run beside this step's graph
        report.loss_trace.append(float(np.mean(epoch_losses)))
        if awl_state is not None:
            report.kappa_trace.append(awl_state.kappa)
            report.tau_trace.append(awl_state.tau)
    # the loss check above runs before each step, so the last step is checked here
    final = [p.data for p in params] + ([awl_state.kappa, awl_state.tau] if awl_state else [])
    if not all(np.isfinite(v).all() for v in final):
        raise TrainingError(f"non-finite parameters or fusion weights after the last step "
                            f"of epoch {config.epochs - 1}")

    if holdout_set:
        preds = [predict(net, s.image) for s in holdout_set]
        anns = [s.annotations for s in holdout_set]
        report.scores = eval_criteria(preds, anns, config.eval_fraction)
    return net, report


@dataclass(frozen=True)
class AblationRow:
    mode: str
    ods_c: float
    ods_l: float
    ods_t: float


def ablation_run(dataset, modes=LOSS_MODES, config=TrainConfig()):
    """Train one network per loss mode from a shared seed; returns the rows."""
    if not holdout_split([s.id for s in dataset], config.holdout_fraction):
        raise ContractError("ablation needs a non-empty holdout split")
    # every mode's config is built, and so checked, before the first training
    configs = [dataclasses.replace(config, loss_mode=mode) for mode in modes]
    rows = []
    for mode_config in configs:
        _, report = train(dataset, mode_config)
        rows.append(AblationRow(
            mode=mode_config.loss_mode,
            ods_c=report.scores.correctness.scores.ods,
            ods_l=report.scores.localness.scores.ods,
            ods_t=report.scores.thickness.scores.ods,
        ))
    return rows


def ablation_csv(rows):
    lines = ["mode,ods_c,ods_l,ods_t"]
    for r in rows:
        lines.append(f"{r.mode},{fmt(r.ods_c)},{fmt(r.ods_l)},{fmt(r.ods_t)}")
    return "\n".join(lines) + "\n"


def loss_trace_csv(report):
    lines = ["epoch,loss"]
    if report.kappa_trace:
        lines = ["epoch,loss,kappa,tau"]
        for i, (lo, ka, ta) in enumerate(zip(report.loss_trace, report.kappa_trace,
                                             report.tau_trace)):
            lines.append(f"{i},{fmt(lo)},{fmt(ka)},{fmt(ta)}")
    else:
        for i, lo in enumerate(report.loss_trace):
            lines.append(f"{i},{fmt(lo)}")
    return "\n".join(lines) + "\n"


def toy_dataset(count=200, size=(64, 64), annotators=3, jitter_px=1.0, seed=0):
    """The standard synthetic set used by the end-to-end and ablation checks."""
    return gen_synthetic(count, size, annotators, jitter_px, seed)
