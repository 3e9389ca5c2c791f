"""Boundary-detection losses over probability maps and multi-annotator labels.

Every loss reads one label view: the consensus weight map, holding the
fraction of annotators that marked each pixel. A class-balanced cross-entropy
and an overlap (dice-style) loss are taken against it, plus two fusions of the
pair: their 1:1 sum, and trainable weights with a log-barrier coupling term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DomainError, ShapeError
from .tensorcore import Parameter, Tensor, add, clip, exp, global_sum, log, mul, reciprocal, square


class AnnotationSet:
    """Binary boundary maps from ``n >= 1`` annotators of one image."""

    __slots__ = ("maps",)

    def __init__(self, maps):
        maps = list(maps)
        if not maps:
            raise ContractError("an annotation set needs at least one annotator")
        shapes = {np.asarray(m).shape for m in maps}
        if len(shapes) != 1:
            raise ShapeError(f"annotator maps disagree on shape: {sorted(shapes)}")
        stack = np.stack([np.asarray(m, dtype=np.float64) for m in maps])
        if stack.ndim != 3:
            raise ContractError(f"expected n x H x W annotator maps, got shape {stack.shape}")
        if not np.all((stack == 0.0) | (stack == 1.0)):
            raise DomainError("annotator maps must be strictly binary")
        self.maps = stack

    @property
    def n(self) -> int:
        return self.maps.shape[0]

    @property
    def spatial_shape(self) -> tuple[int, int]:
        return self.maps.shape[1:]


@dataclass(frozen=True)
class ConsensusWeightMap:
    """Per-pixel fraction of annotators marking a boundary, with the derived
    class-balance statistics.

    ``w`` is (B, 1, H, W); ``beta`` is the negative-pixel fraction over the
    whole batch. ``pos_count``/``neg_count`` partition the pixels by w > 0.
    """

    w: np.ndarray
    beta: float
    pos_count: int
    neg_count: int

    @classmethod
    def from_array(cls, w) -> "ConsensusWeightMap":
        arr = np.asarray(w, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[None, None]
        elif arr.ndim == 3:
            arr = arr[:, None]
        if arr.ndim != 4 or arr.shape[1] != 1:
            raise ShapeError(f"weight map must be (B, 1, H, W), got {arr.shape}")
        if arr.size == 0:
            raise ShapeError(f"weight map has no pixels, shape is {arr.shape}")
        if not np.isfinite(arr).all():
            raise DomainError("weight map has non-finite values")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise DomainError(f"weights must lie in [0, 1], range is [{arr.min()}, {arr.max()}]")
        pos = int(np.count_nonzero(arr > 0.0))
        neg = arr.size - pos
        return cls(w=arr, beta=neg / arr.size, pos_count=pos, neg_count=neg)


def batch_weight_maps(annotation_sets: Sequence[AnnotationSet]) -> ConsensusWeightMap:
    """Stack per-sample consensus maps; balance statistics are global over
    every pixel of the batch, not per-image."""
    sets = list(annotation_sets)
    if not sets:
        raise ContractError("empty batch")
    shapes = {a.spatial_shape for a in sets}
    if len(shapes) != 1:
        raise ShapeError(f"batch mixes spatial shapes: {sorted(shapes)}")
    return ConsensusWeightMap.from_array(np.stack([a.maps.mean(axis=0) for a in sets]))


# probabilities are clipped to [CLAMP, 1 - CLAMP] before the cross-entropy's logs
CLAMP = 1e-6
# added to both sides of the overlap ratio, so empty labels and prediction give 1
EPSILON = 1e-6


@dataclass(frozen=True)
class LossConfig:
    """The fixed balance factor of the adaptive fusion's overlap term."""

    zeta: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.zeta < math.inf:
            raise ContractError(f"zeta must be positive and finite, got {self.zeta}")


class AdaptiveLossState:
    """Trainable fusion weights, stored as logs so they stay positive no
    matter what the optimizer does."""

    __slots__ = ("log_kappa", "log_tau")

    def __init__(self, kappa: float = 1.0, tau: float = 1.0):
        if not (0.0 < kappa < math.inf and 0.0 < tau < math.inf):
            raise ContractError(f"fusion weights must be positive and finite, "
                                f"got kappa={kappa}, tau={tau}")
        self.log_kappa = Parameter(np.full((1, 1, 1, 1), np.log(kappa)))
        self.log_tau = Parameter(np.full((1, 1, 1, 1), np.log(tau)))

    @property
    def kappa(self) -> float:
        return float(np.exp(self.log_kappa.data.reshape(())))

    @property
    def tau(self) -> float:
        return float(np.exp(self.log_tau.data.reshape(())))

    def params(self) -> list[Parameter]:
        return [self.log_kappa, self.log_tau]


def _check_p(p: Tensor, spatial: tuple) -> None:
    if p.shape != spatial:
        raise ShapeError(f"prediction shape {p.shape} does not match labels {spatial}")


def soft_ce(p: Tensor, wmap: ConsensusWeightMap) -> Tensor:
    """Consensus-weighted cross-entropy, count-normalized per class.

    Positive pixels (w > 0) contribute w_i * log p_i scaled by beta / #pos;
    negative pixels contribute log(1 - p_i) scaled by (1 - beta) / #neg.
    Either class being empty silences its term.
    """
    _check_p(p, wmap.w.shape)
    pos_mask = wmap.w > 0.0
    pos_scale = -(wmap.beta / wmap.pos_count) if wmap.pos_count else 0.0
    neg_scale = -((1.0 - wmap.beta) / wmap.neg_count) if wmap.neg_count else 0.0
    pc = clip(p, CLAMP, 1.0 - CLAMP)
    one_minus = add(mul(pc, -1.0), 1.0)
    pos_coef = np.where(pos_mask, wmap.w * pos_scale, 0.0)
    neg_coef = np.where(pos_mask, 0.0, neg_scale)
    return global_sum(add(mul(log(pc), pos_coef), mul(log(one_minus), neg_coef)))


def soft_dice(p: Tensor, wmap: ConsensusWeightMap) -> Tensor:
    """Reciprocal overlap against the consensus weights with an epsilon guard
    on both sides of the ratio; minimum value 1 at pointwise agreement."""
    _check_p(p, wmap.w.shape)
    num = add(global_sum(square(p)), float((wmap.w * wmap.w).sum()) + EPSILON)
    den = add(mul(global_sum(mul(p, wmap.w)), 2.0), EPSILON)
    return mul(num, reciprocal(den))


def combined_loss(p: Tensor, wmap: ConsensusWeightMap) -> Tensor:
    """Fixed 1:1 fusion of the two soft losses."""
    return add(soft_ce(p, wmap), soft_dice(p, wmap))


def adaptive_loss(p: Tensor, wmap: ConsensusWeightMap, awl: AdaptiveLossState,
                  config: LossConfig = LossConfig()) -> Tensor:
    """Trainable-weight fusion: ce_term / kappa^2 + zeta * overlap_term / tau^2
    + log(1 + kappa * tau).

    The log term stops both weights from growing without bound; gradients
    reach the log-parameterized weights as well as the network.
    """
    sce = soft_ce(p, wmap)
    sd = soft_dice(p, wmap)
    kappa = exp(awl.log_kappa)
    tau = exp(awl.log_tau)
    inv_k2 = exp(mul(awl.log_kappa, -2.0))
    inv_t2 = exp(mul(awl.log_tau, -2.0))
    barrier = log(add(mul(kappa, tau), 1.0))
    return add(add(mul(inv_k2, sce), mul(mul(inv_t2, sd), config.zeta)), barrier)
