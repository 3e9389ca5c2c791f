"""Property tests: every validator rejects non-finite and out-of-range values
with its documented CrispEdgeError subclass."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crispedge.data import gen_synthetic
from crispedge.errors import ContractError, DomainError
from crispedge.evalbench import as_probability_map, tolerance_pixels
from crispedge.losses import AdaptiveLossState, ConsensusWeightMap, LossConfig
from crispedge.network import ScaleSet
from crispedge.tensorcore import OptimizerConfig
from crispedge.trainer import TrainConfig

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def below(x):
    return st.floats(max_value=x, exclude_max=True, allow_nan=False, allow_infinity=False)


def at_most(x):
    return st.floats(max_value=x, allow_nan=False, allow_infinity=False)


def above(x):
    return st.floats(min_value=x, exclude_min=True, allow_nan=False, allow_infinity=False)


def at_least(x):
    return st.floats(min_value=x, allow_nan=False, allow_infinity=False)


def weight_map_with(value):
    arr = np.full((2, 3, 4), 0.5)
    arr[1, 2, 3] = value
    return ConsensusWeightMap.from_array(arr)


def probability_map_with(value):
    arr = np.full((3, 4), 0.5)
    arr[2, 1] = value
    return as_probability_map(arr)


# name: (build from one bad value, strategy of bad values, documented error)
CASES = {
    "opt.learning_rate": (lambda v: OptimizerConfig(learning_rate=v), at_most(0.0), ContractError),
    "opt.momentum": (lambda v: OptimizerConfig(momentum=v), below(0.0) | at_least(1.0),
                     ContractError),
    "opt.weight_decay": (lambda v: OptimizerConfig(weight_decay=v), below(0.0), ContractError),
    "opt.lr_decay": (lambda v: OptimizerConfig(lr_decay=v), at_most(0.0), ContractError),
    "loss.zeta": (lambda v: LossConfig(zeta=v), at_most(0.0), ContractError),
    "train.holdout_fraction": (lambda v: TrainConfig(holdout_fraction=v),
                               below(0.0) | at_least(1.0), ContractError),
    "train.eval_fraction": (lambda v: TrainConfig(eval_fraction=v), at_most(0.0), ContractError),
    "awl.kappa": (lambda v: AdaptiveLossState(kappa=v), at_most(0.0), ContractError),
    "awl.tau": (lambda v: AdaptiveLossState(tau=v), at_most(0.0), ContractError),
    "weights": (weight_map_with, below(0.0) | above(1.0), DomainError),
    "gen.jitter_px": (lambda v: gen_synthetic(1, (32, 32), 1, v, seed=0), below(0.0), ContractError),
    "infer.scales": (lambda v: ScaleSet((1.0, v)), at_most(0.0) | above(4.0), ContractError),
    "probability": (probability_map_with, below(0.0) | above(1.0), DomainError),
    # past about 3.1e306 the tolerance, a fraction of the 57.7 px diagonal, overflows
    "eval.max_dist_fraction": (lambda v: tolerance_pixels(32, 48, v),
                               at_most(0.0) | at_least(3.2e306), ContractError),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(CASES))
def test_validator_rejects_non_finite_and_out_of_range(name, data):
    build, out_of_range, error = CASES[name]
    value = data.draw(NON_FINITE | out_of_range, label=name)
    with pytest.raises(error):
        build(value)


# name: build from one seed
SEED_CASES = {
    "gen.seed": lambda s: gen_synthetic(1, (32, 32), 1, 1.0, seed=s),
    "train.seed": lambda s: TrainConfig(seed=s),
}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(max_value=-1))
@pytest.mark.parametrize("name", sorted(SEED_CASES))
def test_validator_rejects_negative_seed(name, seed):
    with pytest.raises(ContractError, match="seed"):
        SEED_CASES[name](seed)


@settings(max_examples=40, deadline=None)
@given(side=st.integers(24, 200), data=st.data())
def test_gen_rejects_jitter_that_leaves_no_room(side, data):
    # a jitter of a quarter of the short side always leaves a shape no room
    jitter = data.draw(st.floats(min_value=side / 4.0, max_value=1e6), label="jitter")
    with pytest.raises(ContractError, match="no room"):
        gen_synthetic(1, (side, side + 7), 1, jitter, seed=0)
