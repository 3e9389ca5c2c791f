import warnings
import weakref

import numpy as np
import pytest

from crispedge import network, tensorcore
from crispedge.errors import ContractError, DomainError, ShapeError, TopologyError
from crispedge.losses import AdaptiveLossState, ConsensusWeightMap, LossConfig, adaptive_loss
from crispedge.network import (
    NetworkTopology,
    RefineBlockSpec,
    ScaleSet,
    StageSpec,
    WeightConvLayer,
    build_refine_net,
    default_topology,
    predict,
    predict_multiscale,
)
from crispedge.tensorcore import (
    Parameter,
    Tensor,
    backward,
    bilinear_resize,
    no_grad,
    resize_array,
    zero_grads,
)

from oracles import bilinear_scalar, conv2d_loops, fd_gradient, rel_err


# predict runs in float32 and the graph-building forward in float64. Each
# layer adds a few float32 roundings, relative to a sum of |terms| of order 1,
# and the sigmoid's slope is at most 1/4, so 32 eps bounds the map's error
# for the 16 layers of the default network. Measured: under 1 eps on
# untrained nets, 11 eps on a trained toy net's holdout.
F32_ATOL = 32 * float(np.finfo(np.float32).eps)


def small_topology():
    return NetworkTopology(
        encoder_stages=(StageSpec(4, 1), StageSpec(8, 2)),
        refine_blocks=(RefineBlockSpec("r1", (("enc1", 1), ("enc2", 2))),),
    )


# ---------------------------------------------------------------------------
# weight convolution


def test_weight_conv_half_gate_at_zero_alpha():
    rng = np.random.default_rng(0)
    k = Parameter(rng.standard_normal((3, 2, 3, 3)))
    layer = WeightConvLayer(k, Parameter(np.zeros((1, 1, 1, 1))))
    x = Tensor(rng.standard_normal((1, 2, 5, 5)))
    got = layer.forward(x).data
    want = 0.5 * np.maximum(conv2d_loops(x.data, k.data, 1, 1), 0.0)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_weight_conv_saturated_gate_is_identity():
    ident = np.zeros((1, 1, 3, 3))
    ident[0, 0, 1, 1] = 1.0
    layer = WeightConvLayer(Parameter(ident), Parameter(np.full((1, 1, 1, 1), 20.0)))
    x = Tensor(np.random.default_rng(1).uniform(0.0, 1.0, (1, 1, 6, 6)))
    assert np.allclose(layer.forward(x).data, x.data, rtol=0, atol=1e-8)


def test_weight_conv_matches_oracle():
    rng = np.random.default_rng(2)
    k = Parameter(rng.standard_normal((2, 3, 3, 3)))
    alpha = 0.7
    layer = WeightConvLayer(k, Parameter(np.full((1, 1, 1, 1), alpha)))
    x = rng.standard_normal((1, 3, 4, 4))
    got = layer.forward(Tensor(x)).data
    gate = 1.0 / (1.0 + np.exp(-alpha))
    want = gate * np.maximum(conv2d_loops(x, k.data, 1, 1), 0.0)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_gate_monotone_in_alpha():
    rng = np.random.default_rng(3)
    k = Parameter(rng.standard_normal((2, 1, 3, 3)))
    x = Tensor(rng.uniform(0.0, 1.0, (1, 1, 5, 5)))
    prev = None
    for a in (-3.0, -1.0, 0.0, 1.0, 3.0):
        out = WeightConvLayer(k, Parameter(np.full((1, 1, 1, 1), a))).forward(x).data
        if prev is not None:
            assert np.all(out >= prev - 1e-15)
        prev = out


# ---------------------------------------------------------------------------
# topology validation


def test_topology_dangling_source():
    topo = NetworkTopology(
        encoder_stages=(StageSpec(4, 1),),
        refine_blocks=(RefineBlockSpec("r1", (("enc9", 1),)),),
    )
    with pytest.raises(TopologyError):
        topo.validate()


def test_topology_rejects_a_source_listed_twice():
    # the forward pops a feature at its last read, so a second read of the
    # same source in one block would find it gone
    topo = NetworkTopology(
        encoder_stages=(StageSpec(4, 1),),
        refine_blocks=(RefineBlockSpec("r1", (("enc1", 1), ("enc1", 1))),),
    )
    with pytest.raises(TopologyError, match="block 'r1' lists a source twice"):
        topo.validate()


# two encoder sources at each of the scales 1, 2, 4 and 8, with distinct
# channel counts, so a block's derived channels show which input set them
_FUSION_STAGES = (StageSpec(6, 1), StageSpec(5, 1), StageSpec(4, 2), StageSpec(9, 1),
                  StageSpec(7, 2), StageSpec(3, 1), StageSpec(2, 2), StageSpec(8, 1))
_SOURCES_AT = {1: ("enc1", "enc2"), 2: ("enc3", "enc4"), 4: ("enc5", "enc6"), 8: ("enc7", "enc8")}


def _fusion_topology(scales):
    """Block "r" reads one encoder source at each of ``scales``, in order; a
    last block fuses it with enc1 for the head."""
    slots = tuple((_SOURCES_AT[s][scales[:i].count(s)], s) for i, s in enumerate(scales))
    return NetworkTopology(
        encoder_stages=_FUSION_STAGES,
        refine_blocks=(RefineBlockSpec("r", slots),
                       RefineBlockSpec("top", (("enc1", 1), ("r", scales[0])))),
    )


# input scales of block "r" and, when accepted, its derived (channels, scale)
FUSION_ACCEPTS = [
    ((1,), (6, 1)),
    ((2, 2), (4, 2)),
    ((1, 2), (4, 1)),
    ((1, 2, 4), (4, 1)),
    ((2, 4, 4), (3, 2)),
    ((1, 4), (6, 1)),
]
FUSION_REJECTS = [(1, 8), (1, 4, 8), (1, 2, 4, 8), (2, 1)]


def _scales_id(scales):
    return "-".join(map(str, scales))


@pytest.mark.parametrize("scales,want", FUSION_ACCEPTS,
                         ids=[_scales_id(scales) for scales, _ in FUSION_ACCEPTS])
def test_fusion_rule_accepts(scales, want):
    # 1 to 3 inputs each at most 2x apart, or 2 inputs 4x apart: the block
    # has its smallest input channel count at its finest input's scale
    assert _fusion_topology(scales).validate()["r"] == want


@pytest.mark.parametrize("scales", FUSION_REJECTS, ids=[_scales_id(s) for s in FUSION_REJECTS])
def test_fusion_rule_rejects(scales):
    with pytest.raises(TopologyError, match="block 'r'"):
        _fusion_topology(scales).validate()


def test_topology_final_level_must_reach_full_resolution():
    topo = NetworkTopology(
        encoder_stages=(StageSpec(4, 1), StageSpec(8, 2), StageSpec(8, 2)),
        refine_blocks=(RefineBlockSpec("r1", (("enc2", 2), ("enc3", 4))),),
    )
    with pytest.raises(TopologyError):
        topo.validate()


def test_topology_wrong_declared_scale():
    topo = NetworkTopology(
        encoder_stages=(StageSpec(4, 1), StageSpec(8, 2)),
        refine_blocks=(RefineBlockSpec("r1", (("enc1", 1), ("enc2", 4))),),
    )
    with pytest.raises(TopologyError):
        topo.validate()


def test_default_topology_validates():
    topo = default_topology()
    assert [spec.name for spec in topo.refine_blocks] == ["r1a", "r1b", "r1c", "r2a"]
    assert topo.head_source() == "r2a"
    known = topo.validate()
    assert known["r1a"] == (8, 1)
    assert known["r1b"] == (16, 2)
    assert known["r1c"] == (16, 2)
    assert known["r2a"] == (8, 1)
    assert known["enc4"] == (64, 8)


# ---------------------------------------------------------------------------
# building and forward


def test_default_forward_shape_and_range():
    net = build_refine_net(seed=0)
    rng = np.random.default_rng(4)
    out = net.forward(Tensor(rng.uniform(0.0, 1.0, (1, 1, 64, 64))))
    assert out.shape == (1, 1, 64, 64)
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


def test_param_count_matches_shape_arithmetic():
    # independent closed-form count over the default wiring
    enc = 8 * 1 * 9 + 16 * 8 * 9 + 32 * 16 * 9 + 64 * 32 * 9
    r1a = 8 * 32 + 8 * 8 * 9 + 1
    r1b = 16 * 64 + 16 * 16 * 9 + 1
    r1c = 16 * 32 + 16 * 64 + 16 * 16 * 9 + 1
    r2a = 8 * 16 + 8 * 16 + 8 * 8 * 9 + 1
    head = 1 * 8 + 1
    want = enc + r1a + r1b + r1c + r2a + head
    assert sum(p.size for p in build_refine_net(seed=0).params()) == want


def test_build_deterministic_from_seed():
    a = build_refine_net(seed=7)
    b = build_refine_net(seed=7)
    c = build_refine_net(seed=8)
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa.data, pb.data)
    assert any(not np.array_equal(pa.data, pc.data) for pa, pc in zip(a.params(), c.params()))


def test_refine_block_constant_inputs_sum():
    # two constant maps at H and H/2: the fused pre-conv map is c1 + c2, and
    # an identity-configured weight conv passes it through
    net = build_refine_net(small_topology(), seed=0)
    block = net.blocks[0]
    block.projections.clear()
    ident = np.zeros((4, 4, 3, 3))
    for c in range(4):
        ident[c, c, 1, 1] = 1.0
    block.wconv.kernel.data[...] = ident
    block.wconv.alpha.data[...] = 40.0
    c1, c2 = 0.3, 1.1
    out = block.forward([Tensor(np.full((1, 4, 8, 8), c1)), Tensor(np.full((1, 4, 4, 4), c2))])
    assert out.shape == (1, 4, 8, 8)
    assert np.allclose(out.data, c1 + c2, rtol=0, atol=1e-12)


def test_refine_block_empty_inputs():
    net = build_refine_net(small_topology(), seed=0)
    with pytest.raises(ContractError):
        net.blocks[0].forward([])


def test_refine_block_takes_one_input_per_slot():
    # a two-slot block given one input is refused, not fused from one
    net = build_refine_net(small_topology(), seed=0)
    with pytest.raises(ContractError, match="takes 2 inputs"):
        net.blocks[0].forward([Tensor(np.zeros((1, 4, 8, 8)))])


def test_forward_channel_mismatch():
    net = build_refine_net(seed=0)
    with pytest.raises(ShapeError, match="network reads one-channel images, got 3 channels"):
        net.forward(Tensor(np.zeros((1, 3, 16, 16))))


def test_resolution_contract_on_variant_topologies():
    variants = [
        default_topology(),
        NetworkTopology(
            encoder_stages=(StageSpec(4, 1), StageSpec(8, 2), StageSpec(12, 2)),
            refine_blocks=(
                RefineBlockSpec("a", (("enc1", 1), ("enc3", 4))),
                RefineBlockSpec("b", (("enc2", 2), ("enc3", 4))),
                RefineBlockSpec("c", (("a", 1), ("b", 2))),
            ),
        ),
    ]
    rng = np.random.default_rng(5)
    for topo in variants:
        known = topo.validate()
        net = build_refine_net(topo, seed=1)
        for h, w in [(16, 16), (24, 33)]:
            x = Tensor(rng.uniform(0, 1, (1, 1, h, w)))
            feats = {}
            # re-run forward manually to inspect each block output
            hcur = x
            from crispedge.tensorcore import conv2d as _conv, relu as _relu
            for i, (k, st) in enumerate(zip(net.encoder_kernels, topo.encoder_stages), start=1):
                hcur = _relu(_conv(hcur, k, stride=st.stride, padding=1))
                feats[f"enc{i}"] = hcur
            for block in net.blocks:
                inputs = [feats[s] for s, _ in block.spec.input_slots]
                out = block.forward(inputs)
                assert out.shape[2:] == inputs[0].shape[2:]
                assert out.shape[1] == known[block.spec.name][0]
                feats[block.spec.name] = out
            assert net.forward(x).shape == (1, 1, h, w)


# ---------------------------------------------------------------------------
# predict


def test_predict_pure_and_batch_contract():
    net = build_refine_net(seed=2)
    img = Tensor(np.random.default_rng(6).uniform(0, 1, (1, 1, 16, 16)))
    a = predict(net, img)
    b = predict(net, img)
    assert np.array_equal(a, b)
    with pytest.raises(ContractError):
        predict(net, Tensor(np.zeros((2, 1, 16, 16))))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e39])
def test_predict_rejects_an_image_beyond_float32(bad):
    net = build_refine_net(seed=2)
    img = np.random.default_rng(6).uniform(0, 1, (1, 1, 16, 16))
    img[0, 0, 5, 7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # raised before the cast could warn
        with pytest.raises(DomainError, match="input image"):
            predict(net, Tensor(img))
    # the largest finite float32 is still accepted
    img[0, 0, 5, 7] = float(np.finfo(np.float32).max)
    assert predict(net, Tensor(img)).shape == (16, 16)


@pytest.mark.parametrize("h,w", [(64, 64), (321, 481)])
def test_graph_free_predict_equals_graph_forward(h, w):
    net = build_refine_net(seed=11)
    img = Tensor(np.random.default_rng(h).uniform(0, 1, (1, 1, h, w)))
    want = net.forward(img).data[0, 0]
    assert np.allclose(predict(net, img), want, rtol=0, atol=F32_ATOL)


def test_predict_returns_float64_and_leaves_the_net_alone():
    net = build_refine_net(seed=12)
    before = [p.data.copy() for p in net.params()]
    out = predict(net, Tensor(np.random.default_rng(12).uniform(0, 1, (1, 1, 24, 40))))
    assert out.dtype == np.float64 and out.shape == (24, 40)
    for p, b in zip(net.params(), before):
        assert p.data.dtype == np.float64 and np.array_equal(p.data, b)
        assert p.grad.dtype == np.float64 and p.velocity.dtype == np.float64


def test_predict_peak_memory_at_bsds_size(traced_peak):
    # at 321x481 the graph-building forward peaks near 426 MB, and the
    # float64 graph-free one near 96 MiB; the float32 one peaks near 32 MiB,
    # so an upcast to float64 anywhere in the forward crosses the bound. At
    # 642x962, the input a scale of 2 runs, it peaks near 76 MiB, about four
    # full-resolution 8-channel maps: a whole padded copy of a conv's input,
    # or a block's inputs held through its weight conv, crosses the bound
    net = build_refine_net(seed=0)
    for (h, w), bound_mib in (((321, 481), 40), ((642, 962), 90)):
        img = Tensor(np.random.default_rng(0).uniform(0, 1, (1, 1, h, w)))
        with traced_peak() as traced:
            predict(net, img)
        assert traced.peak < bound_mib * 2**20, (h, w, traced.peak / 2**20)


def test_each_feature_is_freed_at_its_last_read(monkeypatch):
    # weak references to every encoder and block output: when a block's
    # weight conv runs, and when the head conv runs, a feature is alive
    # only if a later block or the head still reads it
    net = build_refine_net(seed=0)
    topo = net.topology
    enc_names = [f"enc{i}" for i in range(1, len(topo.encoder_stages) + 1)]
    block_names = [spec.name for spec in topo.refine_blocks]
    last_reader = {topo.head_source(): float("inf")}    # the head conv's own input
    for i, spec in enumerate(topo.refine_blocks):
        for src, _ in spec.input_slots:
            last_reader[src] = i
    refs = {}
    seen = []

    def keeping(op, names):
        names = iter(names)

        def wrapped(*args, **kwargs):
            out = op(*args, **kwargs)
            name = next(names, None)    # relu also runs in every weight conv
            if name is not None:
                refs[name] = weakref.ref(out.data)
            return out
        return wrapped

    def conv2d(x, kernel, **kwargs):
        readers = [b.wconv.kernel for b in net.blocks] + [net.head_kernel]
        for i, k in enumerate(readers):
            if kernel is k:
                alive = {name for name, ref in refs.items() if ref() is not None}
                assert alive == {name for name in refs if last_reader[name] > i}, i
                seen.append(i)
        return tensorcore.conv2d(x, kernel, **kwargs)

    monkeypatch.setattr(network, "relu", keeping(tensorcore.relu, enc_names))
    monkeypatch.setattr(network, "mul", keeping(tensorcore.mul, block_names))
    monkeypatch.setattr(network, "conv2d", conv2d)
    img = Tensor(np.random.default_rng(1).uniform(0, 1, (1, 1, 32, 32)))
    with no_grad():
        net.forward(img)
    assert seen == list(range(len(block_names) + 1))
    assert set(refs) == set(enc_names + block_names)


def test_predict_zero_image_gives_half():
    net = build_refine_net(seed=3)
    out = predict(net, Tensor(np.zeros((1, 1, 16, 16))))
    assert np.allclose(out, 0.5, rtol=0, atol=1e-15)


def test_predict_matches_oracle_replay():
    net = build_refine_net(small_topology(), seed=4)
    rng = np.random.default_rng(7)
    img = rng.uniform(0.0, 1.0, (1, 1, 8, 8))

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    feats = {}
    h = img
    for i, (k, st) in enumerate(zip(net.encoder_kernels, net.topology.encoder_stages), start=1):
        h = np.maximum(conv2d_loops(h, k.data, stride=st.stride, padding=1), 0.0)
        feats[f"enc{i}"] = h
    for block in net.blocks:
        th, tw = feats[block.spec.input_slots[0][0]].shape[2:]
        tot = None
        for src, _ in block.spec.input_slots:
            v = feats[src]
            if src in block.projections:
                v = conv2d_loops(v, block.projections[src].data)
            if v.shape[2:] != (th, tw):
                v = np.stack([bilinear_scalar(v[0, c], th, tw) for c in range(v.shape[1])])[None]
            tot = v if tot is None else tot + v
        gate = sig(block.wconv.alpha.data.reshape(()))
        feats[block.spec.name] = gate * np.maximum(conv2d_loops(tot, block.wconv.kernel.data, 1, 1), 0.0)
    logits = conv2d_loops(feats["r1"], net.head_kernel.data) + net.head_bias.data.reshape(())
    want = sig(logits)[0, 0]

    got = predict(net, Tensor(img))
    assert np.allclose(got, want, rtol=0, atol=F32_ATOL)


# ---------------------------------------------------------------------------
# multi-scale


def test_multiscale_single_scale_reduces_to_predict():
    net = build_refine_net(seed=5)
    img = Tensor(np.random.default_rng(8).uniform(0, 1, (1, 1, 32, 32)))
    assert np.array_equal(predict_multiscale(net, img, ScaleSet((1.0,))), predict(net, img))


def test_multiscale_constant_network():
    net = build_refine_net(seed=6)
    for p in net.params():
        p.data[...] = 0.0
    net.head_bias.data[...] = 0.3
    img = Tensor(np.random.default_rng(9).uniform(0, 1, (1, 1, 32, 32)))
    out = predict_multiscale(net, img, ScaleSet((0.5, 1.0, 2.0)))
    c = 1.0 / (1.0 + np.exp(-0.3))
    assert np.allclose(out, c, rtol=0, atol=F32_ATOL)


def test_multiscale_equals_hand_composition():
    net = build_refine_net(seed=7)
    img = Tensor(np.random.default_rng(10).uniform(0, 1, (1, 1, 64, 64)))

    def composed(forward):
        maps = []
        for s in (0.5, 1.0, 2.0):
            th, tw = int(round(64 * s)), int(round(64 * s))
            scaled = img if s == 1.0 else bilinear_resize(img, th, tw)
            m = forward(scaled)
            if m.shape != (64, 64):
                m = resize_array(m, 64, 64)
            maps.append(m)
        return (maps[0] + maps[1] + maps[2]) / 3.0

    got = predict_multiscale(net, img, ScaleSet((0.5, 1.0, 2.0)))
    # the same float32 forwards, so bit for bit
    assert np.array_equal(got, composed(lambda x: predict(net, x)))
    # the float64 graph-building forwards, within float32's bound
    assert np.allclose(got, composed(lambda x: net.forward(x).data[0, 0]), rtol=0, atol=F32_ATOL)


def test_multiscale_too_small_rejected():
    net = build_refine_net(seed=8)
    img = Tensor(np.zeros((1, 1, 12, 12)))
    with pytest.raises(ContractError):
        predict_multiscale(net, img, ScaleSet((0.5, 1.0)))


def test_scale_set_validation():
    with pytest.raises(ContractError):
        ScaleSet(())
    for bad in (-2.0, float("nan"), float("inf")):
        with pytest.raises(ContractError):
            ScaleSet((1.0, bad))


# ---------------------------------------------------------------------------
# gradients through the whole network


def random_wmap(rng, h, w):
    m = (rng.random((h, w)) > 0.8).astype(float)
    return ConsensusWeightMap.from_array(m)


def test_gradient_reaches_every_parameter():
    cfg = LossConfig()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        net = build_refine_net(seed=seed)
        state = AdaptiveLossState()
        img = Tensor(rng.uniform(0, 1, (1, 1, 16, 16)))
        wmap = random_wmap(rng, 16, 16)
        loss = adaptive_loss(net.forward(img), wmap, state, cfg)
        params = net.params() + state.params()
        zero_grads(params)
        backward(loss)
        for i, p in enumerate(params):
            assert p.grad is not None and np.any(p.grad != 0.0), f"seed {seed}, param {i}"


def test_end_to_end_fd_16x16():
    cfg = LossConfig()
    rng = np.random.default_rng(11)
    net = build_refine_net(seed=11)
    state = AdaptiveLossState()
    img_arr = rng.uniform(0, 1, (1, 1, 16, 16))
    wmap = random_wmap(rng, 16, 16)

    params = net.params() + state.params()
    zero_grads(params)
    loss = adaptive_loss(net.forward(Tensor(img_arr)), wmap, state, cfg)
    backward(loss)

    def f():
        return adaptive_loss(net.forward(Tensor(img_arr.copy())), wmap, state, cfg).item()

    check_rng = np.random.default_rng(99)
    for p in params:
        idxs = check_rng.choice(p.size, size=min(2, p.size), replace=False)
        num = fd_gradient(f, p.data, indices=[int(i) for i in idxs])
        ana = p.grad.reshape(-1)
        for i, g in num.items():
            if abs(g) < 1e-12 and abs(ana[i]) < 1e-12:
                continue
            assert rel_err(ana[i], g) < 1e-4, f"param idx {i}"
