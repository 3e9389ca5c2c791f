"""Micro encoder-refiner for boundary probability maps.

A small plain-conv encoder produces features at a pyramid of resolutions.
Refine blocks then fuse pairs or triples of those features: every input is
projected to a shared channel count when needed, upsampled to the finest
participating resolution, summed, and passed through a gated 3x3 convolution
whose scalar gate the optimizer can open or close per layer. A 1x1 head with
bias and sigmoid turns the last block's full-resolution feature into a
probability map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, ShapeError, TopologyError
from .tensorcore import (
    Parameter,
    Tensor,
    add,
    bilinear_resize,
    conv2d,
    mul,
    no_grad,
    relu,
    resize_array,
    sigmoid,
)


@dataclass(frozen=True)
class StageSpec:
    """One encoder stage: a stride-s 3x3 convolution with ReLU."""

    channels: int
    stride: int


@dataclass(frozen=True)
class RefineBlockSpec:
    """Wiring of one fusion block.

    ``input_slots`` lists (source id, resolution denominator) pairs, finest
    first; sources are encoder stages ("enc1"...) or earlier blocks by name.
    """

    name: str
    input_slots: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class NetworkTopology:
    """Encoder stages over a one-channel image, then refine blocks in build
    order; the last block feeds the prediction head."""

    encoder_stages: tuple[StageSpec, ...]
    refine_blocks: tuple[RefineBlockSpec, ...]

    def validate(self) -> dict[str, tuple[int, int]]:
        """Check wiring and return {source id: (channels, scale denominator)}.

        A block fuses 1 to 3 inputs at neighboring resolutions (each step at
        most 2x) or exactly 2 inputs 4x apart. It has its smallest input
        channel count and its finest input's resolution. Raises
        TopologyError on dangling references, a source listed twice in one
        block, misdeclared scales, inputs outside that rule, or a last block
        below full resolution.
        """
        if not self.encoder_stages:
            raise TopologyError("topology needs at least one encoder stage")
        known: dict[str, tuple[int, int]] = {}
        scale = 1
        for i, st in enumerate(self.encoder_stages, start=1):
            if st.channels < 1 or st.stride < 1:
                raise TopologyError(f"encoder stage {i} has invalid channels/stride {st}")
            scale *= st.stride
            known[f"enc{i}"] = (st.channels, scale)
        if not self.refine_blocks:
            raise TopologyError("topology needs at least one refine block")
        for spec in self.refine_blocks:
            if spec.name in known:
                raise TopologyError(f"duplicate block name {spec.name!r}")
            if not spec.input_slots:
                raise TopologyError(f"block {spec.name!r} has no inputs")
            sources = [src for src, _ in spec.input_slots]
            if len(set(sources)) != len(sources):
                raise TopologyError(f"block {spec.name!r} lists a source twice: {sources}")
            for src, declared_scale in spec.input_slots:
                if src not in known:
                    raise TopologyError(f"block {spec.name!r} references unknown source {src!r}")
                if known[src][1] != declared_scale:
                    raise TopologyError(
                        f"block {spec.name!r} declares source {src!r} at 1/{declared_scale}, "
                        f"but it lives at 1/{known[src][1]}")
            chans, scales = zip(*(known[src] for src, _ in spec.input_slots))
            if list(scales) != sorted(scales):
                raise TopologyError(f"block {spec.name!r} inputs must be listed finest first")
            neighboring = len(scales) <= 3 and all(b <= 2 * a for a, b in zip(scales, scales[1:]))
            four_apart = len(scales) == 2 and scales[1] == 4 * scales[0]
            if not (neighboring or four_apart):
                raise TopologyError(
                    f"block {spec.name!r} takes 1 to 3 inputs at neighboring resolutions "
                    f"(each step at most 2x) or 2 inputs 4x apart, got {list(scales)}")
            known[spec.name] = (min(chans), scales[0])
        if known[self.head_source()][1] != 1:
            raise TopologyError("the last refine block must produce a full-resolution output "
                                "for the prediction head")
        return known

    def head_source(self) -> str:
        return self.refine_blocks[-1].name


def default_topology() -> NetworkTopology:
    """Four encoder stages at 1, 1/2, 1/4, 1/8 resolution; two blocks over
    4x gaps and one over three neighboring resolutions, fused at full
    resolution by a fourth block."""
    return NetworkTopology(
        encoder_stages=(StageSpec(8, 1), StageSpec(16, 2), StageSpec(32, 2), StageSpec(64, 2)),
        refine_blocks=(
            RefineBlockSpec("r1a", (("enc1", 1), ("enc3", 4))),
            RefineBlockSpec("r1b", (("enc2", 2), ("enc4", 8))),
            RefineBlockSpec("r1c", (("enc2", 2), ("enc3", 4), ("enc4", 8))),
            RefineBlockSpec("r2a", (("r1a", 1), ("r1b", 2), ("r1c", 2))),
        ),
    )


# largest scale factor: at 4 a BSDS-sized image already runs the network on
# about 1280x1920 pixels
MAX_SCALE = 4.0


@dataclass(frozen=True)
class ScaleSet:
    scales: tuple[float, ...]

    def __post_init__(self):
        if not self.scales:
            raise ContractError("scale set must not be empty")
        if not all(0.0 < s <= MAX_SCALE for s in self.scales):
            raise ContractError(f"scales must lie in (0, {MAX_SCALE:g}], got {self.scales}")


class WeightConvLayer:
    """3x3 convolution + ReLU, multiplied by sigmoid(alpha) with one scalar
    alpha for the whole layer."""

    __slots__ = ("kernel", "alpha")

    def __init__(self, kernel: Parameter, alpha: Parameter):
        self.kernel = kernel
        self.alpha = alpha

    def forward(self, x: Tensor) -> Tensor:
        return mul(relu(conv2d(x, self.kernel, stride=1, padding=1)), sigmoid(self.alpha))


class RefineBlock:
    """Runtime form of a RefineBlockSpec: optional 1x1 projections per input,
    then upsample-to-finest, sum, and one weight-conv layer."""

    __slots__ = ("spec", "projections", "wconv")

    def __init__(self, spec: RefineBlockSpec, projections: dict, wconv: WeightConvLayer):
        self.spec = spec
        self.projections = projections
        self.wconv = wconv

    def forward(self, inputs) -> Tensor:
        """Fuse one input per slot, taken in slot order from any iterable;
        each input is dropped as soon as it is in the running sum."""
        inputs = iter(inputs)
        total = None
        for src, _ in self.spec.input_slots:
            x = next(inputs, None)
            if x is None:
                raise ContractError(f"refine block {self.spec.name!r} takes "
                                    f"{len(self.spec.input_slots)} inputs, one per slot")
            if total is None:
                target_h, target_w = x.shape[2], x.shape[3]
            proj = self.projections.get(src)
            if proj is not None:
                x = conv2d(x, proj)  # 1x1, projecting before the (cheaper) upsample
            if x.shape[2] != target_h or x.shape[3] != target_w:
                x = bilinear_resize(x, target_h, target_w)
            total = x if total is None else add(total, x)
            del x
        return self.wconv.forward(total)


class RefineNet:
    """Built network: encoder kernels, refine blocks, and the 1x1 head."""

    def __init__(self, topology: NetworkTopology, encoder_kernels, blocks, head_kernel, head_bias):
        self.topology = topology
        self.encoder_kernels = encoder_kernels
        self.blocks = blocks
        self.head_kernel = head_kernel
        self.head_bias = head_bias
        self._head_src = topology.head_source()
        # the features each block is the last to read, popped as it reads them
        last_reader = {}
        for i, block in enumerate(blocks):
            for src, _ in block.spec.input_slots:
                last_reader[src] = i
        self._last_reads = [{src for src, j in last_reader.items() if j == i and src != self._head_src}
                            for i in range(len(blocks))]

    def params(self) -> list[Parameter]:
        """All trainable parameters in a fixed structural order (the order
        used for initialization and for flat serialization)."""
        out = list(self.encoder_kernels)
        for block in self.blocks:
            for src, _ in block.spec.input_slots:
                if src in block.projections:
                    out.append(block.projections[src])
            out.append(block.wconv.kernel)
            out.append(block.wconv.alpha)
        out.append(self.head_kernel)
        out.append(self.head_bias)
        return out

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != 1:
            raise ShapeError(f"network reads one-channel images, got {x.shape[1]} channels")
        feats: dict[str, Tensor] = {}
        h = x
        for i, (kernel, st) in enumerate(zip(self.encoder_kernels, self.topology.encoder_stages), start=1):
            h = relu(conv2d(h, kernel, stride=st.stride, padding=1))
            feats[f"enc{i}"] = h
        del h    # the last stage's output is then freed with its feats entry
        for block, last_reads in zip(self.blocks, self._last_reads):
            # a generator, so only the block's running sum outlives its inputs
            feats[block.spec.name] = block.forward(
                feats.pop(src) if src in last_reads else feats[src]
                for src, _ in block.spec.input_slots)
        logits = add(conv2d(feats[self._head_src], self.head_kernel), self.head_bias)
        return sigmoid(logits)


def build_refine_net(topology: NetworkTopology | None = None, seed: int = 0) -> RefineNet:
    """Construct and deterministically initialize a network.

    Kernels draw from a centered uniform distribution scaled by the inverse
    square root of fan-in; gates start at 0 (half open) and the head bias at 0.
    """
    if topology is None:
        topology = default_topology()
    known = topology.validate()
    rng = np.random.default_rng(seed)

    def kernel(out_ch, in_ch, kh, kw):
        bound = 1.0 / np.sqrt(in_ch * kh * kw)
        return Parameter(rng.uniform(-bound, bound, (out_ch, in_ch, kh, kw)))

    encoder_kernels = []
    prev = 1
    for st in topology.encoder_stages:
        encoder_kernels.append(kernel(st.channels, prev, 3, 3))
        prev = st.channels

    blocks = []
    for spec in topology.refine_blocks:
        out_ch = known[spec.name][0]
        projections = {}
        for src, _ in spec.input_slots:
            src_ch = known[src][0]
            if src_ch != out_ch:
                projections[src] = kernel(out_ch, src_ch, 1, 1)
        wconv = WeightConvLayer(kernel(out_ch, out_ch, 3, 3),
                                Parameter(np.zeros((1, 1, 1, 1))))
        blocks.append(RefineBlock(spec, projections, wconv))

    head_src = topology.head_source()
    head_kernel = kernel(1, known[head_src][0], 1, 1)
    head_bias = Parameter(np.zeros((1, 1, 1, 1)))
    return RefineNet(topology, encoder_kernels, blocks, head_kernel, head_bias)


def _float32_copy(net: RefineNet) -> RefineNet:
    """The same network with float32 copies of its parameter values, as
    leaf tensors; call inside ``no_grad()``."""
    def cast(p):
        return Tensor(p.data.astype(np.float32))

    blocks = [RefineBlock(b.spec, {src: cast(k) for src, k in b.projections.items()},
                          WeightConvLayer(cast(b.wconv.kernel), cast(b.wconv.alpha)))
              for b in net.blocks]
    return RefineNet(net.topology, [cast(k) for k in net.encoder_kernels], blocks,
                     cast(net.head_kernel), cast(net.head_bias))


def predict(net: RefineNet, image: Tensor) -> np.ndarray:
    """Single graph-free forward pass in float32 on copies of the image and
    of the parameters; returns the H x W probability map as float64."""
    if image.shape[0] != 1:
        raise ContractError(f"predict takes a single-image batch, got batch {image.shape[0]}")
    f32_max = float(np.finfo(np.float32).max)
    if not np.all(np.abs(image.data) <= f32_max):    # also false for NaN
        raise DomainError(f"input image must be finite and within float32's range "
                          f"(|x| <= {f32_max:.8g}) for the float32 forward")
    with no_grad():
        out = _float32_copy(net).forward(Tensor(image.data.astype(np.float32)))
    return out.data[0, 0].astype(np.float64)


def predict_multiscale(net: RefineNet, image: Tensor, scales: ScaleSet) -> np.ndarray:
    """Run the network at each scale, resize every map back to the input
    size, and average them in the listed order."""
    h, w = image.shape[2], image.shape[3]
    acc = None
    for s in scales.scales:
        th, tw = int(round(h * s)), int(round(w * s))
        if th < 8 or tw < 8:
            raise ContractError(f"scale {s} shrinks the image to {th}x{tw}; "
                                "both axes must stay >= 8 px")
        with no_grad():
            scaled = image if (th, tw) == (h, w) else bilinear_resize(image, th, tw)
        p = predict(net, scaled)
        if p.shape != (h, w):
            p = resize_array(p, h, w)
        acc = p if acc is None else acc + p
    return acc / len(scales.scales)
