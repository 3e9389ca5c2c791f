"""Finite-difference audit of the autodiff core.

``OP_CASES`` lists every differentiable op of ``tensorcore`` once, as
``(name, make_inputs, forward)`` rows: ``make_inputs(rng)`` draws the input
tensors and ``forward(*tensors)`` reduces the op's output to a scalar loss with
``global_sum``. ``audit`` checks each row's analytic gradients against central
differences, then does the same for sampled parameters of a small network
driven through the adaptive loss.

Errors reduce with NaN propagation: a NaN gradient makes ``worst`` NaN, which
never passes ``FD_LIMIT``.
"""

from __future__ import annotations

import numpy as np

from .losses import AdaptiveLossState, AnnotationSet, adaptive_loss, batch_weight_maps
from .network import NetworkTopology, RefineBlockSpec, StageSpec, build_refine_net
from . import tensorcore as tc
from .tensorcore import Tensor, backward

FD_STEP = 1e-5
FD_LIMIT = 1e-4


def numeric_grad(f, arr, indices=None):
    """Central differences of the scalar ``f()`` with respect to ``arr``.

    ``arr`` is perturbed in place and restored. Only the flat ``indices`` are
    probed when given; the other entries of the result stay zero.
    """
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    g = grad.reshape(-1)
    for i in range(flat.size) if indices is None else indices:
        keep = flat[i]
        flat[i] = keep + FD_STEP
        up = f()
        flat[i] = keep - FD_STEP
        down = f()
        flat[i] = keep
        g[i] = (up - down) / (2 * FD_STEP)
    return grad


def rel_err(analytic, numeric):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / scale))


def worst_of(errors):
    """Largest error, NaN if any error is NaN (``max`` would drop it)."""
    return float(np.max(list(errors)))


def _away_from_kinks(x, pad=0.05):
    return np.where(np.abs(x) < pad, x + 2 * pad, x)


_SIZES = (1, 2, 5, 4)


def _normal(*shapes):
    return lambda rng: tuple(Tensor(rng.standard_normal(s)) for s in shapes)


OP_CASES = (
    ("add", _normal(_SIZES, _SIZES),
     lambda a, b: tc.global_sum(tc.square(tc.add(a, b)))),
    ("mul", _normal(_SIZES, _SIZES),
     lambda a, b: tc.global_sum(tc.mul(a, b))),
    ("relu", lambda rng: (Tensor(_away_from_kinks(rng.standard_normal(_SIZES))),),
     lambda a: tc.global_sum(tc.square(tc.relu(a)))),
    ("sigmoid", _normal(_SIZES),
     lambda a: tc.global_sum(tc.square(tc.sigmoid(a)))),
    ("exp", _normal(_SIZES),
     lambda a: tc.global_sum(tc.exp(a))),
    ("log", lambda rng: (Tensor(rng.uniform(0.2, 2.0, _SIZES)),),
     lambda a: tc.global_sum(tc.square(tc.log(a)))),
    ("square", _normal(_SIZES),
     lambda a: tc.global_sum(tc.square(a))),
    ("reciprocal", lambda rng: (Tensor(rng.uniform(0.5, 2.0, _SIZES)),),
     lambda a: tc.global_sum(tc.reciprocal(a))),
    ("clip", lambda rng: (Tensor(_away_from_kinks(rng.uniform(-1, 2, _SIZES) - 0.5) + 0.5),),
     lambda a: tc.global_sum(tc.square(tc.clip(a, 0.0, 1.0)))),
    # both backward paths: a stride-1 conv with fewer outputs than inputs
    # takes its gradients from the columns of g, a stride-2 one from x's
    ("conv2d", _normal((1, 3, 6, 6), (2, 3, 3, 3), (3, 2, 3, 3)),
     lambda x, k1, k2: tc.global_sum(tc.square(
         tc.conv2d(tc.conv2d(x, k1, stride=1, padding=1), k2, stride=2, padding=1)))),
    ("bilinear_resize", _normal((1, 2, 5, 5)),
     lambda x: tc.global_sum(tc.square(tc.bilinear_resize(x, 8, 7)))),
)


def op_error(seed, k, make_inputs, forward):
    """Worst relative error over every input of one case, draw ``k``."""
    tensors = make_inputs(np.random.default_rng([seed, k]))
    backward(forward(*tensors))
    return worst_of(rel_err(t.grad, numeric_grad(lambda: forward(*tensors).item(), t.data))
                    for t in tensors)


def composite_error(seed):
    """Worst relative error over two sampled coordinates of every parameter
    of a two-stage network with one refine block, under the adaptive loss."""
    topo = NetworkTopology(
        encoder_stages=(StageSpec(4, 1), StageSpec(8, 2)),
        refine_blocks=(RefineBlockSpec("r0", (("enc1", 1), ("enc2", 2))),),
    )
    net = build_refine_net(topo, seed=seed)
    rng = np.random.default_rng([seed, 99])
    image = Tensor(rng.random((1, 1, 12, 12)))
    ann = (rng.random((12, 12)) > 0.8).astype(float)
    ann[5, 2:10] = 1.0
    wmap = batch_weight_maps([AnnotationSet([ann])])
    awl = AdaptiveLossState()

    def f():
        return adaptive_loss(net.forward(image), wmap, awl).item()

    backward(adaptive_loss(net.forward(image), wmap, awl))
    coord_rng = np.random.default_rng([seed, 100])
    errors = []
    for p in net.params() + awl.params():
        idxs = coord_rng.choice(p.data.size, size=min(2, p.data.size), replace=False)
        numeric = numeric_grad(f, p.data, idxs)
        errors.append(rel_err(p.grad.reshape(-1)[idxs], numeric.reshape(-1)[idxs]))
    return worst_of(errors)


def audit(seed):
    """``(name, worst)`` rows: each op over three draws, then ``composite``."""
    rows = [(name, worst_of(op_error(seed, k, make_inputs, forward) for k in range(3)))
            for name, make_inputs, forward in OP_CASES]
    rows.append(("composite", composite_error(seed)))
    return rows
