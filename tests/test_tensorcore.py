import inspect

import numpy as np
import pytest

from crispedge import tensorcore
from crispedge.errors import ContractError, DomainError, ShapeError
from crispedge.tensorcore import (
    ComputeGraph,
    OptimizerConfig,
    Parameter,
    Tensor,
    add,
    backward,
    bilinear_resize,
    clip,
    conv2d,
    exp,
    global_sum,
    log,
    mul,
    no_grad,
    reciprocal,
    relu,
    resize_array,
    sgd_step,
    sigmoid,
    square,
)
from crispedge.gradcheck import OP_CASES
from crispedge.network import default_topology

from oracles import bilinear_scalar, conv2d_grads_loops, conv2d_loops, fd_gradient, rel_err


# ---------------------------------------------------------------------------
# conv2d


def test_conv_all_ones_pad1():
    x = Tensor(np.ones((1, 1, 3, 3)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    y = conv2d(x, k, stride=1, padding=1).data[0, 0]
    assert y[1, 1] == 9.0
    for corner in (y[0, 0], y[0, 2], y[2, 0], y[2, 2]):
        assert corner == 4.0


def test_conv_identity_kernel_bit_exact():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 1, 5, 7)))
    k = Tensor(np.ones((1, 1, 1, 1)))
    y = conv2d(x, k)
    assert np.array_equal(y.data, x.data)


def test_conv_matches_nested_loop_oracle():
    rng = np.random.default_rng(1)
    for stride, padding in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        x = rng.standard_normal((1, 2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        got = conv2d(Tensor(x), Tensor(k), stride=stride, padding=padding).data
        want = conv2d_loops(x, k, stride=stride, padding=padding)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv_row_blocks_match_nested_loop_oracle(monkeypatch):
    # a budget of 40 column elements makes every output row its own block:
    # block edges cut through the padded rows, and at padding 3 the first and
    # last blocks read padding only, below the input's last row with KH = 2
    monkeypatch.setattr(tensorcore, "_IM2COL_BUDGET", 40)
    rng = np.random.default_rng(5)
    for kh, kw, stride, padding in [(3, 3, 1, 1), (3, 3, 2, 1), (3, 3, 1, 3), (2, 3, 1, 3),
                                    (2, 3, 2, 3), (1, 1, 1, 0), (3, 3, 2, 0)]:
        x = rng.standard_normal((2, 2, 7, 6))
        k = rng.standard_normal((3, 2, kh, kw))
        with no_grad():
            got = conv2d(Tensor(x), Tensor(k), stride=stride, padding=padding).data
        want = conv2d_loops(x, k, stride=stride, padding=padding)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12), (kh, kw, stride, padding)


def _default_conv_shapes(h, w):
    """(out, in, kernel size, stride, input h, input w) of every conv in the
    default network on an h x w image: the 3x3 encoder stages and weight
    convs, the 1x1 projections and the 1x1 head."""
    topo = default_topology()
    known = topo.validate()
    shapes, c, sizes = [], 1, {1: (h, w)}
    for i, st in enumerate(topo.encoder_stages, start=1):
        scale = known[f"enc{i}"][1]
        ih, iw = sizes[scale // st.stride]
        shapes.append((st.channels, c, 3, st.stride, ih, iw))
        sizes[scale] = (-(-ih // st.stride), -(-iw // st.stride))
        c = st.channels
    for spec in topo.refine_blocks:
        out, scale = known[spec.name]
        for src, src_scale in spec.input_slots:
            if known[src][0] != out:
                shapes.append((out, known[src][0], 1, 1) + sizes[src_scale])
        shapes.append((out, out, 3, 1) + sizes[scale])
    shapes.append((1, known[topo.head_source()][0], 1, 1, h, w))
    return shapes


def test_chunked_conv_forward_bit_exact_at_double_bsds_size():
    from crispedge.tensorcore import _IM2COL_BUDGET

    rng = np.random.default_rng(12)
    chunked = 0
    for o, c, k, stride, h, w in _default_conv_shapes(642, 962):
        pad = k // 2
        x = Tensor(rng.standard_normal((1, c, h, w)))
        kernel = Tensor(rng.standard_normal((o, c, k, k)))
        with no_grad():
            got = conv2d(x, kernel, stride=stride, padding=pad).data
        xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        s = xp.strides
        view = np.lib.stride_tricks.as_strided(
            xp, (1, c, k, k) + got.shape[2:], s + (s[2] * stride, s[3] * stride))
        chunked += view.size > _IM2COL_BUDGET
        want = np.einsum("bcijhw,ocij->bohw", view, kernel.data, optimize=True)
        if o > 1:
            assert np.array_equal(got, want), (o, c, k, stride, h, w)
        else:
            # a one-row product runs in BLAS's matrix-vector kernel, whose
            # vector tail and thread split move with each block's column
            # count: the few outputs there may take another summation order
            terms = np.einsum("bcijhw,ocij->bohw", np.abs(view), np.abs(kernel.data), optimize=True)
            assert np.all(np.abs(got - want) <= 2 * c * k * k * np.finfo(float).eps * terms)
        del x, xp, view, want, got
    assert chunked == 8


def test_conv_channel_mismatch():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))


def test_conv_output_too_small():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))))


def test_conv_gradients_match_fd():
    rng = np.random.default_rng(2)
    ax = rng.standard_normal((1, 2, 5, 5))
    ak = rng.standard_normal((2, 2, 3, 3))
    x, k = Tensor(ax), Tensor(ak)
    loss = global_sum(square(conv2d(x, k, stride=2, padding=1)))
    backward(loss)

    def f():
        return global_sum(square(conv2d(Tensor(ax.copy()), Tensor(ak.copy()), stride=2, padding=1))).item()

    for arr, tensor in [(ax, x), (ak, k)]:
        num = fd_gradient(f, arr)
        ana = tensor.grad.reshape(-1)
        for i, g in num.items():
            assert rel_err(ana[i], g) < 1e-4


# (input shape, kernel shape, stride, padding)
CONV_GRAD_CASES = {
    "c1-k3-s1-p1": ((1, 1, 5, 7), (4, 1, 3, 3), 1, 1),
    "o4c4-k3-s1-p1": ((3, 4, 5, 7), (4, 4, 3, 3), 1, 1),
    "o2c5-k3-s1-p1": ((3, 5, 6, 4), (2, 5, 3, 3), 1, 1),
    "o2c3-k3-s1-p0": ((2, 3, 6, 7), (2, 3, 3, 3), 1, 0),
    "k5-s1-p2": ((2, 3, 7, 6), (3, 3, 5, 5), 1, 2),
    "k1x3-s1-p0": ((2, 3, 5, 6), (2, 3, 1, 3), 1, 0),
    "o1-k3-s2-p0": ((3, 2, 6, 5), (1, 2, 3, 3), 2, 0),
    "o1c1-k3-s2-p1": ((3, 1, 9, 6), (1, 1, 3, 3), 2, 1),
    "k3-s1-p0": ((1, 2, 6, 9), (3, 2, 3, 3), 1, 0),
    "k3-s2-p1": ((3, 3, 7, 9), (2, 3, 3, 3), 2, 1),
    "k1-s1-p0": ((3, 4, 5, 7), (2, 4, 1, 1), 1, 0),
    "k1-s2-p1": ((1, 3, 7, 4), (3, 3, 1, 1), 2, 1),
    "o1c1-k1-s1-p0": ((3, 1, 5, 3), (1, 1, 1, 1), 1, 0),
}


@pytest.mark.parametrize("case", CONV_GRAD_CASES.values(), ids=CONV_GRAD_CASES)
def test_conv_gradients_match_loop_oracle(case):
    x_shape, k_shape, stride, padding = case
    rng = np.random.default_rng(sum(x_shape) + sum(k_shape))
    x, k = Tensor(rng.standard_normal(x_shape)), Tensor(rng.standard_normal(k_shape))
    y = conv2d(x, k, stride=stride, padding=padding)
    g = rng.standard_normal(y.shape)
    backward(global_sum(mul(y, Tensor(g))))
    want_dx, want_dk = conv2d_grads_loops(x.data, k.data, g, stride, padding)
    assert np.allclose(x.grad, want_dx, rtol=1e-12)
    assert np.allclose(k.grad, want_dk, rtol=1e-12)


def test_conv_grad_cases_cover_both_backward_paths():
    from_g = {name for name, (_, (o, c, kh, kw), stride, padding) in CONV_GRAD_CASES.items()
              if tensorcore._correlates_g(stride, padding, kh, kw, o, c)}
    assert from_g == {"o4c4-k3-s1-p1", "o2c5-k3-s1-p1", "o2c3-k3-s1-p0", "k5-s1-p2",
                      "k1x3-s1-p0", "k1-s1-p0", "o1c1-k1-s1-p0"}


def test_conv_backward_scratch_is_bounded(traced_peak):
    # the 3x3 refine convs at batch 10: the columns of the padded g,
    # (B, O*9, H*W), are as large as x's, 8*9 x 10*64*64 doubles (22.5 MB) at
    # 64x64; dk is taken from them first, then dx is written straight into
    # (B, C, H, W), and the padded g, the columns and a leaf's copy of dx
    # never all live at once
    rng = np.random.default_rng(3)
    for c, side in ((8, 64), (16, 32)):
        x = Tensor(rng.standard_normal((10, c, side, side)))
        k = Tensor(rng.standard_normal((c, c, 3, 3)))
        y = conv2d(x, k, padding=1)
        g = rng.standard_normal(y.shape)
        cols_bytes = c * 9 * 10 * side * side * 8
        with traced_peak() as traced:
            y._grad_fn(g)
        assert traced.peak < 1.25 * cols_bytes, (c, side, traced.peak / cols_bytes)


def test_recorded_conv_holds_no_padded_copy(traced_peak):
    # the closure keeps x, a graph parent already, and pads only inside
    # backward; a padded copy of x held for backward would be (66/64)^2,
    # about 1.06x, the input
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((10, 8, 64, 64)))
    k = Tensor(rng.standard_normal((8, 8, 3, 3)))
    with traced_peak() as traced:
        y = conv2d(x, k, padding=1)
    assert traced.held - y.data.nbytes < 0.05 * x.data.nbytes


def test_conv_forward_scratch_is_one_block(traced_peak):
    # an 8-channel 3x3 conv at 512x512: its whole column buffer would hold
    # 8*9 x 512*512 doubles (151 MB), over four blocks of _IM2COL_BUDGET; a
    # whole padded copy of the input would add about half a block
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((1, 8, 512, 512)))
    k = Tensor(rng.standard_normal((8, 8, 3, 3)))
    block_bytes = 8 * tensorcore._IM2COL_BUDGET
    assert 8 * 9 * x.data.nbytes > 4 * block_bytes
    with no_grad(), traced_peak() as traced:
        y = conv2d(x, k, padding=1)
    assert traced.peak - y.data.nbytes < 1.25 * block_bytes


# ---------------------------------------------------------------------------
# bilinear_resize


def test_bilinear_constant_map():
    x = Tensor(np.full((1, 1, 4, 6), 3.25))
    y = bilinear_resize(x, 9, 5)
    assert np.allclose(y.data, 3.25, rtol=0, atol=1e-12)


def test_bilinear_same_size_bit_exact():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((1, 2, 6, 6)))
    y = bilinear_resize(x, 6, 6)
    assert np.array_equal(y.data, x.data)


def test_bilinear_matches_scalar_oracle():
    ramp = np.arange(16, dtype=np.float64).reshape(4, 4)
    got = bilinear_resize(Tensor(ramp), 8, 8).data[0, 0]
    want = bilinear_scalar(ramp, 8, 8)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
    rng = np.random.default_rng(4)
    img = rng.random((5, 7))
    got = bilinear_resize(Tensor(img), 11, 4).data[0, 0]
    want = bilinear_scalar(img, 11, 4)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_bilinear_zero_target():
    with pytest.raises(ShapeError):
        bilinear_resize(Tensor(np.ones((1, 1, 4, 4))), 0, 4)


def test_resize_array_matches_tensor_op():
    rng = np.random.default_rng(5)
    img = rng.random((6, 9))
    a = resize_array(img, 13, 5)
    b = bilinear_resize(Tensor(img), 13, 5).data[0, 0]
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


def test_bilinear_gradient_matches_fd():
    rng = np.random.default_rng(6)
    ax = rng.standard_normal((1, 1, 4, 5))
    x = Tensor(ax)
    loss = global_sum(square(bilinear_resize(x, 7, 3)))
    backward(loss)

    def f():
        return global_sum(square(bilinear_resize(Tensor(ax.copy()), 7, 3))).item()

    num = fd_gradient(f, ax)
    ana = x.grad.reshape(-1)
    for i, g in num.items():
        assert rel_err(ana[i], g) < 1e-4


# ---------------------------------------------------------------------------
# pointwise ops


def test_sigmoid_at_zero():
    assert sigmoid(Tensor(0.0)).item() == 0.5


def test_sigmoid_extreme_inputs_finite():
    y = sigmoid(Tensor(np.array([[[[-800.0, 800.0]]]])))
    assert np.all(np.isfinite(y.data))
    assert y.data[0, 0, 0, 0] >= 0.0 and y.data[0, 0, 0, 1] <= 1.0


def test_relu_values():
    y = relu(Tensor(np.array([[[[-3.2, 3.2]]]])))
    assert y.data[0, 0, 0, 0] == 0.0
    assert y.data[0, 0, 0, 1] == 3.2


def test_global_sum_counts():
    assert global_sum(Tensor(np.ones((2, 1, 2, 2)))).item() == 8.0
    assert global_sum(Tensor(np.ones((2, 1, 2, 2)))).shape == (1, 1, 1, 1)


def test_log_rejects_nonpositive():
    with pytest.raises(DomainError):
        log(Tensor(0.0))
    with pytest.raises(DomainError):
        log(Tensor(-1.0))


def test_reciprocal_rejects_zero():
    with pytest.raises(DomainError):
        reciprocal(Tensor(0.0))


def test_add_shape_mismatch():
    with pytest.raises(ShapeError):
        add(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 3, 3))))


def test_add_broadcast_scalar_tensor():
    x = Tensor(np.ones((2, 1, 2, 2)))
    b = Tensor(2.0)
    y = add(x, b)
    assert np.all(y.data == 3.0)
    backward(global_sum(y))
    assert b.grad.reshape(()) == 8.0  # summed over all broadcast positions


def test_clip_gradient_zero_outside():
    ax = np.array([[[[-2.0, 0.3, 2.0]]]])
    x = Tensor(ax)
    loss = global_sum(clip(x, 0.0, 1.0))
    backward(loss)
    assert x.grad[0, 0, 0, 0] == 0.0
    assert x.grad[0, 0, 0, 1] == 1.0
    assert x.grad[0, 0, 0, 2] == 0.0


# ---------------------------------------------------------------------------
# backward


def test_backward_sigmoid_at_zero():
    x = Tensor(0.0)
    backward(sigmoid(x))
    assert abs(x.grad.reshape(()) - 0.25) < 1e-15


def test_backward_dead_relu():
    x = Tensor(-1.0)
    backward(relu(x))
    assert x.grad.reshape(()) == 0.0


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones((1, 1, 2, 2)))
    with pytest.raises(ContractError):
        backward(x)


def test_backward_accumulates_without_reset():
    x = Tensor(2.0)
    loss = square(x)
    backward(loss)
    first = x.grad.copy()
    x.grad = None
    loss2 = square(x)
    backward(loss2)
    backward(loss2)
    assert np.allclose(x.grad, 2 * first)


def test_diamond_graph_gradient():
    # y = x*x + x*x reuses the same node twice; grad must be 4x
    x = Tensor(1.5)
    s = square(x)
    backward(add(s, s))
    assert abs(x.grad.reshape(()) - 6.0) < 1e-15


def test_backward_frees_interior_gradients():
    rng = np.random.default_rng(8)
    ax = rng.standard_normal((2, 2, 5, 6))
    ak = rng.standard_normal((3, 2, 3, 3))
    aw = rng.standard_normal((2, 3, 7, 4))

    def tail(y, w):
        r = relu(bilinear_resize(y, 7, 4))
        return global_sum(mul(sigmoid(add(r, w)), r))

    x, k, w = Tensor(ax), Tensor(ak), Tensor(aw)
    loss = tail(conv2d(x, k, padding=1), w)
    interior = [n for n in ComputeGraph.trace(loss).nodes if n._grad_fn is not None]
    backward(loss)
    assert len(interior) == 7 and all(n.grad is None for n in interior)

    # d(loss)/d(conv output) from the tail alone, with that output as a leaf
    y = Tensor(conv2d(Tensor(ax), Tensor(ak), padding=1).data)
    backward(tail(y, Tensor(aw)))
    want_dx, want_dk = conv2d_grads_loops(ax, ak, y.grad, padding=1)
    assert np.allclose(x.grad, want_dx, rtol=1e-12)
    assert np.allclose(k.grad, want_dk, rtol=1e-12)

    def f():
        return tail(conv2d(Tensor(ax), Tensor(ak), padding=1), Tensor(aw)).item()

    for arr, tensor in [(ax, x), (ak, k), (aw, w)]:
        ana = tensor.grad.reshape(-1)
        for i, g in fd_gradient(f, arr).items():
            assert rel_err(ana[i], g) < 1e-4


def test_leaf_gradients_are_writable_and_own_their_memory():
    # interior nodes may hold the very array their child handed down; a
    # leaf's grad must not, whichever op passed g through unchanged
    rng = np.random.default_rng(9)
    a, b, c, d = (Tensor(rng.standard_normal((2, 3, 4, 5))) for _ in range(4))
    k = Parameter(rng.standard_normal((3, 3, 1, 1)))
    loss = add(add(global_sum(a), global_sum(bilinear_resize(b, 4, 5))),
               add(global_sum(add(c, c)), global_sum(conv2d(bilinear_resize(d, 4, 5), k))))
    nodes = ComputeGraph.trace(loss).nodes
    backward(loss)
    leaves = [n for n in nodes if n._grad_fn is None]
    assert len(leaves) == 5
    for leaf in leaves:
        assert leaf.grad.flags.writeable
        others = [n.data for n in nodes] + [n.grad for n in nodes if n is not leaf and n.grad is not None]
        assert not any(np.shares_memory(leaf.grad, arr) for arr in others)
    assert np.array_equal(a.grad, np.ones(a.shape)) and np.array_equal(b.grad, a.grad)
    assert np.array_equal(c.grad, 2 * a.grad)


def test_composite_gradients_match_fd_many_seeds():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ax = rng.uniform(0.1, 1.0, (1, 1, 4, 4)) * rng.choice([-1.0, 1.0], (1, 1, 4, 4))
        ak = rng.standard_normal((2, 1, 3, 3)) * 0.5
        asc = rng.uniform(0.2, 0.8, (1, 1, 1, 1))

        def build(xv, kv, sv):
            x, k, s = Tensor(xv), Tensor(kv), Tensor(sv)
            h = relu(conv2d(x, k, padding=1))
            g = mul(sigmoid(h), exp(mul(s, -1.0)))
            z = add(g, square(clip(x, -0.5, 0.5)))
            t = log(add(global_sum(z), 100.0))
            return (x, k, s), add(t, reciprocal(add(global_sum(square(x)), 1.0)))

        (x, k, s), loss = build(ax, ak, asc)
        backward(loss)

        def f():
            return build(ax.copy(), ak.copy(), asc.copy())[1].item()

        for arr, tensor in [(ax, x), (ak, k), (asc, s)]:
            num = fd_gradient(f, arr)
            ana = tensor.grad.reshape(-1)
            for i, g in num.items():
                # skip coordinates parked on a relu/clip kink
                if abs(g) < 1e-12 and abs(ana[i]) < 1e-12:
                    continue
                assert rel_err(ana[i], g) < 1e-4, f"seed {seed} idx {i}"


# ---------------------------------------------------------------------------
# optimizer


def test_sgd_fixed_point():
    p = Parameter(np.full((1, 1, 1, 1), 0.7))
    cfg = OptimizerConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    sgd_step([p], cfg)
    assert p.data.reshape(()) == 0.7
    assert p.velocity.reshape(()) == 0.0


def test_sgd_single_step_closed_form():
    p = Parameter(np.full((1, 1, 1, 1), 1.0))
    p.grad[...] = 0.5
    cfg = OptimizerConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    sgd_step([p], cfg)
    assert abs(p.data.reshape(()) - (1.0 - 0.1 * 0.5)) < 1e-15
    assert p.grad.reshape(()) == 0.0  # zeroed after the step


def test_sgd_trajectory_matches_scalar_recurrence():
    from oracles import sgd_scalar

    lr, mom, wd = 0.05, 0.9, 0.01
    cfg = OptimizerConfig(learning_rate=lr, momentum=mom, weight_decay=wd)
    p = Parameter(np.full((1, 1, 1, 1), 2.0))
    seen = []
    # quadratic loss 0.5*p^2 has gradient p
    grads = []
    for _ in range(3):
        g = p.data.reshape(()).item()
        grads.append(g)
        p.grad[...] = g
        sgd_step([p], cfg)
        seen.append(p.data.reshape(()).item())
    want = sgd_scalar(2.0, grads, lr, mom, wd)
    assert np.allclose(seen, want, rtol=0, atol=1e-15)


def test_optimizer_config_invariants():
    with pytest.raises(ContractError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ContractError):
        OptimizerConfig(momentum=1.0)
    with pytest.raises(ContractError):
        OptimizerConfig(weight_decay=-1e-9)


def test_tensor_requires_4d():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 2, 2, 2, 2)))


def test_parameter_owns_its_buffer():
    src = np.ones((1, 1, 1, 1))
    p = Parameter(src)
    p.grad[...] = 1.0
    sgd_step([p], OptimizerConfig(learning_rate=0.5, momentum=0.0, weight_decay=0.0))
    assert src[0, 0, 0, 0] == 1.0


# ---------------------------------------------------------------------------
# no_grad


def test_no_grad_results_are_leaves_and_recording_resumes():
    rng = np.random.default_rng(13)
    x = Tensor(rng.uniform(0.5, 1.5, (1, 2, 6, 6)))
    k = Parameter(rng.standard_normal((3, 2, 3, 3)))
    ops = [
        lambda: add(x, x), lambda: add(x, 1.0), lambda: mul(x, x), lambda: mul(x, 2.0),
        lambda: relu(x), lambda: sigmoid(x), lambda: exp(x), lambda: log(x),
        lambda: square(x), lambda: reciprocal(x), lambda: clip(x, 0.8, 1.2),
        lambda: global_sum(x), lambda: conv2d(x, k, padding=1),
        lambda: bilinear_resize(x, 6, 6), lambda: bilinear_resize(x, 9, 4),
    ]
    recorded = [op() for op in ops]
    with no_grad():
        leaves = [op() for op in ops]
    for graph_out, leaf in zip(recorded, leaves):
        assert leaf._parents == () and leaf._grad_fn is None
        assert np.array_equal(leaf.data, graph_out.data)
    assert all(t._parents and t._grad_fn is not None for t in recorded)

    with pytest.raises(DomainError):
        with no_grad():
            log(Tensor(-np.ones((1, 1, 2, 2))))
    with no_grad():
        with no_grad():
            pass
        assert relu(x)._grad_fn is None
    after = relu(x)
    assert after._parents == (x,) and after._grad_fn is not None


def test_float32_only_inside_no_grad_and_every_op_keeps_it():
    rng = np.random.default_rng(14)
    x64 = rng.uniform(0.5, 1.5, (1, 2, 6, 6))
    k64 = rng.standard_normal((3, 2, 3, 3))
    for make in (Tensor, Parameter):
        with pytest.raises(ContractError):
            make(x64.astype(np.float32))
    assert Tensor(x64.astype(np.float16)).data.dtype == np.float64
    with no_grad():
        x = Tensor(x64.astype(np.float32))
        k = Tensor(k64.astype(np.float32))
        outs = [
            add(x, x), add(x, 1.0), mul(x, x), mul(x, 2.0), relu(x), sigmoid(x), exp(x),
            log(x), square(x), reciprocal(x), clip(x, 0.8, 1.2), global_sum(x),
            conv2d(x, k, padding=1), conv2d(x, k, stride=2), bilinear_resize(x, 6, 6),
            bilinear_resize(x, 9, 4), bilinear_resize(x, 3, 11),
        ]
    assert [t.data.dtype for t in outs] == [np.dtype(np.float32)] * len(outs)
    assert resize_array(x64[0, 0].astype(np.float32), 9, 4).dtype == np.float32
    with pytest.raises(ContractError):
        relu(x)   # a float32 leaf cannot enter a recorded graph


def test_every_tensor_op_has_a_gradcheck_row():
    # global_sum needs no row: every row's loss ends in it
    covered = {name for name, _, _ in OP_CASES} | {"global_sum"}
    ops = {name for name, f in inspect.getmembers(tensorcore, inspect.isfunction)
           if not name.startswith("_") and f.__module__ == tensorcore.__name__
           and inspect.signature(f).return_annotation in ("Tensor", Tensor)}
    assert ops == covered
