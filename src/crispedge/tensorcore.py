"""Dense 4-D tensors with reverse-mode differentiation and SGD-with-momentum.

Every tensor carries a (batch, channels, height, width) shape and float64
values, or float32 values inside ``no_grad()``. Operations compute in their
inputs' dtype, record their inputs and a gradient closure on the output
tensor; ``backward`` replays them in reverse topological order. Inside
``no_grad()`` nothing is recorded: every result is a leaf, so inference holds
no inputs or masks for a backward. A float32 tensor built while recording is a
``ContractError``, so every graph, and with it training and gradient checks,
is float64. Scalars are (1, 1, 1, 1) tensors.

conv2d's forward runs one block of output rows at a time: each block
zero-pads only the input rows it reads into a slab and multiplies the kernel
by that slab's im2col columns, so no padded copy of the whole input exists.

conv2d's backward has two formulations, picked by ``_correlates_g`` from the
conv's stride, padding and sizes alone. At stride 1, with padding below the
kernel size and no more output than input channels, it builds the columns of
the upstream gradient g, zero-padded by (KH-1-p, KW-1-p), once: the kernel
gradient is their product with the input, the input gradient their product
with the flipped, O<->C-transposed kernel. Every other conv multiplies g by
the input's columns for the kernel gradient and scatters the kernel's taps
of g back onto the padded input for the input gradient.

An interior node's gradient may be the very array its child's closure handed
down, so no closure writes into its ``g``; a leaf's gradient is its own
writable array.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, ShapeError

Shape = tuple[int, int, int, int]

# Most elements in one block of a conv2d forward's column buffer; a batch of
# ten 64x64 images is one block in every conv of the default network.
_IM2COL_BUDGET = 1 << 22

_recording = True


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block: results carry no parents and no
    gradient closure. Recording resumes on exit, also when the block raises.
    The switch is process-wide, not per thread."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _as_data(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype != np.float32:
        arr = arr.astype(np.float64, copy=False)
    elif _recording:
        raise ContractError("float32 tensors exist only inside no_grad(); graphs are float64")
    if arr.ndim == 0:
        arr = arr.reshape(1, 1, 1, 1)
    elif arr.ndim == 2:
        arr = arr.reshape((1, 1) + arr.shape)
    elif arr.ndim == 3:
        arr = arr.reshape((1,) + arr.shape)
    if arr.ndim != 4:
        raise ShapeError(f"tensors are 4-D (batch, channels, height, width); got ndim {arr.ndim}")
    return np.ascontiguousarray(arr)


class Tensor:
    """Immutable dense array node in a compute graph.

    ``data`` must not be mutated once the tensor exists; gradient state
    (``grad``) is the only mutable field and is touched only by ``backward``
    and the optimizer.
    """

    __slots__ = ("data", "grad", "_parents", "_grad_fn")

    def __init__(self, values, _parents: tuple = (), _grad_fn=None):
        self.data = _as_data(values)
        self.grad: np.ndarray | None = None
        if not _recording:
            _parents, _grad_fn = (), None
        self._parents = _parents
        self._grad_fn = _grad_fn

    @property
    def shape(self) -> Shape:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a 1-element tensor, shape is {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Parameter(Tensor):
    """Trainable tensor with persistent gradient and momentum velocity."""

    __slots__ = ("velocity",)

    def __init__(self, values):
        super().__init__(values)
        self.data = self.data.copy()  # updates happen in place; never share a buffer
        self.grad = np.zeros_like(self.data)
        self.velocity = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class ComputeGraph:
    """Topologically ordered record of the operations below a root tensor."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "ComputeGraph":
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` for every leaf below ``loss``.

    An interior node's gradient is freed once its gradient closure has used
    it, so afterwards only leaves (tensors without a closure, parameters
    among them) hold a ``grad``. Calling twice without zeroing gradients
    accumulates both passes.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a 1-element loss tensor, shape is {loss.shape}")
    graph = ComputeGraph.trace(loss)
    # interior grads are scratch state, and a pass that raised part-way can
    # leave some behind: clear them so every call contributes exactly one
    # d(loss)/d(leaf) to each leaf
    for node in graph.nodes:
        if node._grad_fn is not None:
            node.grad = None
    if loss.grad is None:
        loss.grad = np.ones_like(loss.data)
    else:
        loss.grad = loss.grad + np.ones_like(loss.data)
    for node in reversed(graph.nodes):
        if node._grad_fn is not None and node.grad is not None:
            # reverse topological order: every contribution has arrived
            node._grad_fn(node.grad)
            node.grad = None


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        # no closure writes into g, so an interior node may hold it as is; a
        # leaf's grad outlives the pass and gets its own writable copy
        t.grad = g if t._grad_fn is not None else g.copy()
    else:
        t.grad = t.grad + g


def _unbroadcast(g: np.ndarray, shape: Shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast up from ``shape``."""
    if g.shape == shape:
        return g
    axes = tuple(i for i in range(4) if shape[i] == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True)


def _broadcastable(a: Shape, b: Shape) -> bool:
    return all(x == y or x == 1 or y == 1 for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# pointwise operations


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum; ``b`` may be a tensor (same or broadcastable shape),
    scalar, or constant array."""
    if isinstance(b, Tensor):
        if a.shape != b.shape and not _broadcastable(a.shape, b.shape):
            raise ShapeError(f"add shapes {a.shape} and {b.shape} do not align")

        def grad_fn(g: np.ndarray) -> None:
            _accumulate(a, _unbroadcast(g, a.shape))
            _accumulate(b, _unbroadcast(g, b.shape))

        return Tensor(a.data + b.data, (a, b), grad_fn)

    const = np.asarray(b, dtype=a.data.dtype)
    return Tensor(a.data + const, (a,), lambda g: _accumulate(a, _unbroadcast(g, a.shape)))


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; ``b`` may be a tensor, scalar, or constant array."""
    if isinstance(b, Tensor):
        if a.shape != b.shape and not _broadcastable(a.shape, b.shape):
            raise ShapeError(f"mul shapes {a.shape} and {b.shape} do not align")

        def grad_fn(g: np.ndarray) -> None:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

        return Tensor(a.data * b.data, (a, b), grad_fn)

    const = np.asarray(b, dtype=a.data.dtype)
    return Tensor(a.data * const, (a,), lambda g: _accumulate(a, _unbroadcast(g * const, a.shape)))


def relu(x: Tensor) -> Tensor:
    return Tensor(np.maximum(x.data, 0.0), (x,), lambda g: _accumulate(x, g * (x.data > 0.0)))


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    e = np.exp(-np.abs(d))
    s = np.where(d >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return Tensor(s, (x,), lambda g: _accumulate(x, g * s * (1.0 - s)))


def exp(x: Tensor) -> Tensor:
    e = np.exp(x.data)
    return Tensor(e, (x,), lambda g: _accumulate(x, g * e))


def log(x: Tensor) -> Tensor:
    if np.any(x.data <= 0.0):
        raise DomainError(f"log needs strictly positive input, min is {x.data.min()}")
    return Tensor(np.log(x.data), (x,), lambda g: _accumulate(x, g / x.data))


def square(x: Tensor) -> Tensor:
    return Tensor(x.data * x.data, (x,), lambda g: _accumulate(x, g * 2.0 * x.data))


def reciprocal(x: Tensor) -> Tensor:
    if np.any(x.data == 0.0):
        raise DomainError("reciprocal of zero")
    inv = 1.0 / x.data
    return Tensor(inv, (x,), lambda g: _accumulate(x, -g * inv * inv))


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient is zero where the clamp binds."""
    return Tensor(np.clip(x.data, lo, hi), (x,),
                  lambda g: _accumulate(x, g * ((x.data >= lo) & (x.data <= hi))))


def global_sum(x: Tensor) -> Tensor:
    return Tensor(np.full((1, 1, 1, 1), x.data.sum()), (x,),
                  lambda g: _accumulate(x, np.broadcast_to(g, x.shape)))


# ---------------------------------------------------------------------------
# spatial operations


def _columns(view: np.ndarray) -> np.ndarray:
    """Copy an im2col view (B,C,KH,KW,R,OW) into GEMM columns (C*KH*KW, B*R*OW)."""
    b, c, kh, kw, r, ow = view.shape
    return view.transpose(1, 2, 3, 0, 4, 5).reshape(c * kh * kw, b * r * ow)


def _im2col_view(data: np.ndarray, kh: int, kw: int, oh: int, ow: int,
                 stride: int, ph: int, pw: int) -> np.ndarray:
    """Strided (B,C,KH,KW,OH,OW) view of ``data`` zero-padded by ``ph`` rows
    and ``pw`` columns on each side; with no padding it views ``data``
    itself."""
    if ph or pw:
        b, c, h, w = data.shape
        padded = np.zeros((b, c, h + 2 * ph, w + 2 * pw), data.dtype)
        padded[:, :, ph:ph + h, pw:pw + w] = data
        data = padded
    s = data.strides
    return np.lib.stride_tricks.as_strided(data, data.shape[:2] + (kh, kw, oh, ow),
                                           s + (s[2] * stride, s[3] * stride))


def _conv_forward(data: np.ndarray, kernel: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Cross-correlate ``data`` (B,C,H,W), zero-padded by ``padding`` on each
    side, with a kernel (O,C,KH,KW), one block of output rows at a time. A
    block pads only the input rows it reads into a slab and multiplies the
    kernel by that slab's columns; the columns hold at most
    ``_IM2COL_BUDGET`` elements, so a small input is one block."""
    b, c, h, w = data.shape
    o, _, kh, kw = kernel.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    weights = kernel.reshape(o, c * kh * kw)
    y = None
    rows = max(1, _IM2COL_BUDGET // max(1, b * c * kh * kw * ow))
    for r in range(0, oh, rows):
        n = min(rows, oh - r)
        # the block reads padded rows [top, top + span) of the input
        top, span = r * stride - padding, (n - 1) * stride + kh
        if padding:
            slab = np.zeros((b, c, span, w + 2 * padding), data.dtype)
            lo = max(top, 0)
            hi = max(lo, min(top + span, h))
            slab[:, :, lo - top:hi - top, padding:padding + w] = data[:, :, lo:hi]
        else:
            slab = data[:, :, top:top + span]
        if y is None:
            # after the first slab, as it came after the whole padded copy:
            # with glibc's malloc, a slab freed above the output joins the
            # heap's free top, which is handed back to the system and faulted
            # in again by the next conv (measured on train-64: ~25k more
            # page faults per round, ~8% fewer samples/s)
            y = np.empty((b, o, oh, ow), np.result_type(data, kernel))
        # the slab is freed before the product exists, the columns before
        # the next block's slab does
        cols = _columns(_im2col_view(slab, kh, kw, n, ow, stride, 0, 0))
        del slab
        y[:, :, r:r + n] = (weights @ cols).reshape(o, b, n, ow).swapaxes(0, 1)
        del cols
    return y


def _correlates_g(stride: int, padding: int, kh: int, kw: int, o: int, c: int) -> bool:
    """Whether a conv's backward takes both gradients from the columns of
    its upstream gradient g: at stride 1, with padding below the kernel size
    and no more output than input channels, those columns are no larger than
    the input's. Every other conv takes them from the input's columns."""
    return stride == 1 and padding < min(kh, kw) and o <= c


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of ``x`` (B,C,H,W) with ``kernel`` (O,C,KH,KW)."""
    if stride < 1:
        raise ContractError(f"stride must be positive, got {stride}")
    if padding < 0:
        raise ContractError(f"padding must be non-negative, got {padding}")
    b, c, h, w = x.shape
    o, ck, kh, kw = kernel.shape
    if c != ck:
        raise ShapeError(f"input has {c} channels, kernel expects {ck}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"kernel {kh}x{kw} with stride {stride}, padding {padding} "
                         f"gives non-positive output size for {h}x{w} input")

    def grad_fn(g: np.ndarray) -> None:
        # the closure holds x, not a padded copy: both formulations re-read
        # x.data, and every padded copy and column buffer is a temporary
        if _correlates_g(stride, padding, kh, kw, o, c):
            # columns of g zero-padded by (KH-1-p, KW-1-p), (B, O*KH*KW, H*W),
            # no larger than x's: dx correlates them with the flipped,
            # O<->C-transposed kernel, and dk pairs them with x, taps flipped
            cols = _im2col_view(g, kh, kw, h, w, 1, kh - 1 - padding, kw - 1 - padding
                                ).reshape(b, o * kh * kw, h * w)
            dk = (cols @ x.data.reshape(b, c, h * w).swapaxes(1, 2)).sum(axis=0)
            _accumulate(kernel, dk.reshape(o, kh, kw, c)[:, ::-1, ::-1].transpose(0, 3, 1, 2))
            flipped = kernel.data[:, :, ::-1, ::-1].swapaxes(0, 1).reshape(c, o * kh * kw)
            dx = (flipped @ cols).reshape(b, c, h, w)
            del cols
            _accumulate(x, dx)
            return
        # dk: one GEMM of g, (O, B*OH*OW), with x's columns, freed before dx
        # builds its own product of the columns' size
        view = _im2col_view(x.data, kh, kw, oh, ow, stride, padding, padding)
        _accumulate(kernel, (g.swapaxes(0, 1).reshape(o, -1) @ _columns(view).T)
                    .reshape(o, c, kh, kw))
        del view
        # dx: every tap's contribution in one batched matmul, then scattered
        # back tap by tap onto the padded input
        taps = (kernel.data.reshape(o, -1).T @ g.reshape(b, o, oh * ow)).reshape(
            b, c, kh, kw, oh, ow)
        dxp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), x.data.dtype)
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += taps[:, :, i, j]
        if padding:
            dxp = dxp[:, :, padding:padding + h, padding:padding + w]
        _accumulate(x, dxp)

    return Tensor(_conv_forward(x.data, kernel.data, stride, padding), (x, kernel), grad_fn)


def resize_weights(src: int, dst: int) -> np.ndarray:
    """(dst, src) bilinear interpolation matrix with half-pixel centers.

    Source coordinate of target index t is (t + 0.5) * src/dst - 0.5, clamped
    to the valid range. Rows sum to 1; when dst == src the matrix is exactly
    the identity. Callers cast it to the dtype of the data they resize.
    """
    t = np.arange(dst)
    pos = np.clip((t + 0.5) * (src / dst) - 0.5, 0.0, src - 1.0)
    i0 = np.floor(pos).astype(np.intp)
    i1 = np.minimum(i0 + 1, src - 1)
    frac = pos - i0
    w = np.zeros((dst, src))
    w[t, i0] = 1.0 - frac
    w[t, i1] += frac    # i1 == i0 at the clamped end: the row sums to 1 there too
    return w


def resize_array(data: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    """Bilinear resize of the trailing two axes of a plain float array, in
    its dtype."""
    h, w = data.shape[-2], data.shape[-1]
    if target_h == h and target_w == w:
        return data.copy()
    wh = resize_weights(h, target_h).astype(data.dtype, copy=False)
    ww = resize_weights(w, target_w).astype(data.dtype, copy=False)
    return (wh @ data) @ ww.T


def bilinear_resize(x: Tensor, target_h: int, target_w: int) -> Tensor:
    """Bilinear interpolation of the spatial axes to (target_h, target_w)."""
    if target_h < 1 or target_w < 1:
        raise ShapeError(f"target size must be at least 1x1, got {target_h}x{target_w}")
    _, _, h, w = x.shape
    if target_h == h and target_w == w:
        return Tensor(x.data, (x,), lambda g: _accumulate(x, g))
    wh = resize_weights(h, target_h).astype(x.data.dtype, copy=False)
    ww = resize_weights(w, target_w).astype(x.data.dtype, copy=False)

    def grad_fn(g: np.ndarray) -> None:
        _accumulate(x, (wh.T @ g) @ ww)

    return Tensor((wh @ x.data) @ ww.T, (x,), grad_fn)


# ---------------------------------------------------------------------------
# optimizer


@dataclass(frozen=True)
class OptimizerConfig:
    """SGD hyperparameters; ``lr_decay`` is the factor applied at schedule
    milestones by the training loop."""

    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_decay: float = 0.1

    def __post_init__(self):
        for name in ("learning_rate", "momentum", "weight_decay", "lr_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0.0:
            raise ContractError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ContractError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ContractError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.lr_decay <= 0.0:
            raise ContractError(f"lr_decay must be positive, got {self.lr_decay}")


def sgd_step(params: list[Parameter], config: OptimizerConfig) -> None:
    """Classical momentum update, in place; gradients are zeroed afterwards.

    v <- momentum * v + grad + weight_decay * p
    p <- p - learning_rate * v
    """
    for p in params:
        p.velocity[...] = config.momentum * p.velocity + p.grad + config.weight_decay * p.data
        p.data[...] = p.data - config.learning_rate * p.velocity
        p.zero_grad()


def zero_grads(params: list[Parameter]) -> None:
    for p in params:
        p.zero_grad()
