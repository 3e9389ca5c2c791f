import math

import numpy as np
import pytest

from crispedge.errors import ContractError, DomainError, ShapeError
from crispedge.losses import (
    CLAMP,
    EPSILON,
    AdaptiveLossState,
    AnnotationSet,
    ConsensusWeightMap,
    LossConfig,
    adaptive_loss,
    batch_weight_maps,
    combined_loss,
    soft_ce,
    soft_dice,
)
from crispedge.tensorcore import Tensor, backward

from oracles import (
    fd_gradient,
    rel_err,
    soft_ce_loops,
    soft_dice_loops,
)



def random_w(rng, h=4, w=4, frac=0.4):
    m = rng.random((h, w))
    m[rng.random((h, w)) > frac] = 0.0
    return m


# ---------------------------------------------------------------------------
# consensus weight map


def test_weight_map_mean_of_annotators():
    base = np.zeros((3, 3))
    marked = base.copy()
    marked[1, 1] = 1.0
    ann = AnnotationSet([marked, marked, base, base, base])
    wm = batch_weight_maps([ann])
    assert wm.w[0, 0, 1, 1] == pytest.approx(0.4)
    assert wm.pos_count == 1
    assert wm.neg_count == 8


def test_weight_map_single_annotator_identity():
    rng = np.random.default_rng(0)
    m = (rng.random((5, 5)) > 0.6).astype(float)
    wm = batch_weight_maps([AnnotationSet([m])])
    assert np.array_equal(wm.w[0, 0], m)


def test_weight_map_all_empty():
    wm = batch_weight_maps([AnnotationSet([np.zeros((4, 4)), np.zeros((4, 4))])])
    assert np.all(wm.w == 0.0)
    assert wm.beta == 1.0
    assert wm.pos_count == 0


def test_annotation_set_validation():
    with pytest.raises(ContractError):
        AnnotationSet([])
    with pytest.raises(ShapeError):
        AnnotationSet([np.zeros((3, 3)), np.zeros((4, 4))])
    with pytest.raises(DomainError):
        AnnotationSet([np.full((3, 3), 0.5)])


def test_weight_map_range_validation():
    with pytest.raises(DomainError):
        ConsensusWeightMap.from_array(np.full((3, 3), 1.5))


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (1, 1, 0, 4), (0, 1, 4, 4)])
def test_weight_map_without_pixels_rejected(shape):
    with pytest.raises(ShapeError, match="no pixels"):
        ConsensusWeightMap.from_array(np.zeros(shape))


def test_batch_of_empty_annotations_rejected():
    with pytest.raises(ShapeError, match="no pixels"):
        batch_weight_maps([AnnotationSet([np.zeros((0, 3))])])


def test_batch_weight_maps_global_counts():
    m1 = np.zeros((3, 3))
    m1[0, 0] = 1.0
    m2 = np.zeros((3, 3))
    wm = batch_weight_maps([AnnotationSet([m1]), AnnotationSet([m2])])
    assert wm.w.shape == (2, 1, 3, 3)
    assert wm.pos_count == 1
    assert wm.neg_count == 17
    assert wm.beta == pytest.approx(17 / 18)


# ---------------------------------------------------------------------------
# soft cross-entropy


def test_soft_ce_all_negative_is_zero():
    wm = ConsensusWeightMap.from_array(np.zeros((4, 4)))
    rng = np.random.default_rng(1)
    p = Tensor(rng.uniform(0.1, 0.9, (4, 4)))
    assert soft_ce(p, wm).item() == 0.0


def test_soft_ce_all_positive_is_zero():
    wm = ConsensusWeightMap.from_array(np.full((4, 4), 0.5))
    rng = np.random.default_rng(2)
    p = Tensor(rng.uniform(0.1, 0.9, (4, 4)))
    assert soft_ce(p, wm).item() == 0.0


def test_soft_ce_symmetric_closed_form():
    w = np.array([[1.0, 1.0], [0.0, 0.0]])
    p = Tensor(np.full((1, 1, 2, 2), 0.5))
    got = soft_ce(p, ConsensusWeightMap.from_array(w)).item()
    assert got == pytest.approx(math.log(2), rel=1e-12)


def test_soft_ce_matches_scalar_oracle():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.01, 0.99, (4, 4))
        w = random_w(rng)
        got = soft_ce(Tensor(p), ConsensusWeightMap.from_array(w)).item()
        want = soft_ce_loops(p, w, CLAMP)
        assert rel_err(got, want) < 1e-12


def test_soft_losses_shape_mismatch():
    wm = ConsensusWeightMap.from_array(np.zeros((2, 2)))
    for loss in (soft_ce, soft_dice):
        with pytest.raises(ShapeError):
            loss(Tensor(np.full((1, 1, 3, 3), 0.5)), wm)


def test_soft_ce_binary_w_normalizes_each_class_by_its_count():
    # with one annotator w is binary, and each class's beta-weighted log sum
    # is divided by that class's pixel count
    for seed in range(5):
        rng = np.random.default_rng(seed)
        lab = (rng.random((5, 5)) > 0.6).astype(float)
        if lab.sum() in (0, lab.size):
            continue
        p = rng.uniform(0.05, 0.95, (5, 5))
        n = lab.size
        n_pos = int(lab.sum())
        n_neg = n - n_pos
        beta = n_neg / n
        pos_part = -beta * sum(math.log(p[i, j]) for i in range(5) for j in range(5) if lab[i, j] > 0.5)
        neg_part = -(1 - beta) * sum(
            math.log(1 - p[i, j]) for i in range(5) for j in range(5) if lab[i, j] <= 0.5)
        sce = soft_ce(Tensor(p), ConsensusWeightMap.from_array(lab)).item()
        assert rel_err(sce, pos_part / n_pos + neg_part / n_neg) < 1e-12


# ---------------------------------------------------------------------------
# soft dice


def test_soft_dice_equality_and_empty():
    rng = np.random.default_rng(3)
    w = random_w(rng)
    got = soft_dice(Tensor(w), ConsensusWeightMap.from_array(w)).item()
    assert got == pytest.approx(1.0, abs=1e-9)
    empty = soft_dice(Tensor(np.zeros((3, 3))), ConsensusWeightMap.from_array(np.zeros((3, 3))))
    assert empty.item() == 1.0


def test_soft_dice_matches_scalar_oracle():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.0, 1.0, (4, 4))
        w = random_w(rng)
        got = soft_dice(Tensor(p), ConsensusWeightMap.from_array(w)).item()
        want = soft_dice_loops(p, w, EPSILON)
        assert rel_err(got, want) < 1e-12


def test_soft_dice_lower_bound():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.0, 1.0, (5, 5))
        w = random_w(rng, 5, 5)
        val = soft_dice(Tensor(p), ConsensusWeightMap.from_array(w)).item()
        assert val >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# fusions


def test_combined_reductions_are_exact():
    # the fixed fusion is one float64 add of the two losses
    rng = np.random.default_rng(4)
    p = Tensor(rng.uniform(0.05, 0.95, (4, 4)))
    wm = ConsensusWeightMap.from_array(random_w(rng))
    sce, sd = soft_ce(p, wm).item(), soft_dice(p, wm).item()
    assert combined_loss(p, wm).item() == sce + sd


def test_adaptive_closed_form_at_unit_weights():
    rng = np.random.default_rng(5)
    p_arr = rng.uniform(0.05, 0.95, (4, 4))
    wm = ConsensusWeightMap.from_array(random_w(rng))
    sce = soft_ce(Tensor(p_arr), wm).item()
    sd = soft_dice(Tensor(p_arr), wm).item()
    got = adaptive_loss(Tensor(p_arr), wm, AdaptiveLossState(1.0, 1.0)).item()
    assert rel_err(got, sce + 0.1 * sd + math.log(2)) < 1e-12


def test_adaptive_closed_form_kappa_two():
    rng = np.random.default_rng(6)
    p_arr = rng.uniform(0.05, 0.95, (4, 4))
    wm = ConsensusWeightMap.from_array(random_w(rng))
    sce = soft_ce(Tensor(p_arr), wm).item()
    sd = soft_dice(Tensor(p_arr), wm).item()
    got = adaptive_loss(Tensor(p_arr), wm, AdaptiveLossState(2.0, 1.0)).item()
    assert rel_err(got, 0.25 * sce + 0.1 * sd + math.log(3)) < 1e-9


def test_adaptive_weight_gradients_closed_form_and_fd():
    rng = np.random.default_rng(7)
    p_arr = rng.uniform(0.05, 0.95, (4, 4))
    wm = ConsensusWeightMap.from_array(random_w(rng))
    sce = soft_ce(Tensor(p_arr), wm).item()
    sd = soft_dice(Tensor(p_arr), wm).item()
    state = AdaptiveLossState(1.0, 1.0)
    loss = adaptive_loss(Tensor(p_arr), wm, state)
    backward(loss)
    gk = state.log_kappa.grad.reshape(()).item()
    gt = state.log_tau.grad.reshape(()).item()
    # at unit weights the log-parameter gradient equals the raw-weight one
    assert abs(gk - (-2.0 * sce + 0.5)) < 1e-9
    assert abs(gt - (-2.0 * 0.1 * sd + 0.5)) < 1e-9

    def f():
        return adaptive_loss(Tensor(p_arr), wm, state).item()

    for param, ana in [(state.log_kappa, gk), (state.log_tau, gt)]:
        num = fd_gradient(f, param.data)
        assert abs(ana - num[0]) < 1e-6


def test_adaptive_state_validation_and_positivity():
    with pytest.raises(ContractError):
        AdaptiveLossState(0.0, 1.0)
    with pytest.raises(ContractError):
        AdaptiveLossState(1.0, -2.0)
    s = AdaptiveLossState(0.5, 3.0)
    assert s.kappa == pytest.approx(0.5, rel=1e-12)
    assert s.tau == pytest.approx(3.0, rel=1e-12)
    # pushing the stored logs anywhere keeps the weights positive
    s.log_kappa.data[...] = -40.0
    assert s.kappa > 0.0


# ---------------------------------------------------------------------------
# shared properties


def test_losses_permutation_invariant():
    rng = np.random.default_rng(8)
    p = rng.uniform(0.05, 0.95, (4, 4))
    w = random_w(rng)
    perm = rng.permutation(16)
    pp = p.reshape(-1)[perm].reshape(4, 4)
    wp = w.reshape(-1)[perm].reshape(4, 4)
    wm, wmp = ConsensusWeightMap.from_array(w), ConsensusWeightMap.from_array(wp)
    pairs = [
        (soft_ce(Tensor(p), wm), soft_ce(Tensor(pp), wmp)),
        (soft_dice(Tensor(p), wm), soft_dice(Tensor(pp), wmp)),
    ]
    for a, b in pairs:
        assert rel_err(a.item(), b.item()) < 1e-12


def test_loss_gradients_wrt_p_match_fd():
    rng = np.random.default_rng(9)
    p_arr = rng.uniform(0.1, 0.9, (1, 1, 4, 4))
    w = random_w(rng)
    wm = ConsensusWeightMap.from_array(w)
    state = AdaptiveLossState()

    builders = [
        lambda t: soft_ce(t, wm),
        lambda t: soft_dice(t, wm),
        lambda t: combined_loss(t, wm),
        lambda t: adaptive_loss(t, wm, state),
    ]
    for build in builders:
        t = Tensor(p_arr)
        state.log_kappa.zero_grad()
        state.log_tau.zero_grad()
        backward(build(t))

        def f():
            return build(Tensor(p_arr.copy())).item()

        num = fd_gradient(f, p_arr)
        ana = t.grad.reshape(-1)
        for i, g in num.items():
            assert rel_err(ana[i], g) < 1e-4


def test_loss_config_validation():
    for bad in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ContractError):
            LossConfig(zeta=bad)
