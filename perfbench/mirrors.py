"""Traced replays of the library's call sequences.

The program is not instrumented. Instead, these functions make the same
public calls, in the same order, as ``crispedge.trainer.train``,
``RefineNet.forward``, ``eval_criteria`` and ``crispedge.cli.run`` make
them, with a span around each call. Each replay is checked against the real
call's output by the workload that uses it, so a replay that drifts from the
program fails the run instead of tracing something else.
"""

import contextlib
import dataclasses
import io
import time

import numpy as np

from spans import Tracer

from crispedge import cli, data, evalbench, losses, network
from crispedge import tensorcore as tc


def conv_shape(x, kernel, stride):
    o, c, k, _ = kernel.shape
    return f"o{o}c{c}k{k}s{stride}-{x.shape[2]}x{x.shape[3]}"


def _timed_grad(tracer, name, out):
    # backward calls out._grad_fn; wrapping it on a tensor the replay created
    # times that op's share of backward without touching the library
    fn = out._grad_fn

    def grad_fn(g):
        with tracer.span(name):
            fn(g)

    out._grad_fn = grad_fn
    return out


def conv2d(tracer, x, kernel, stride=1, padding=0):
    shape = conv_shape(x, kernel, stride)
    with tracer.span("tensorcore.conv2d_fwd." + shape):
        out = tc.conv2d(x, kernel, stride=stride, padding=padding)
    return _timed_grad(tracer, "tensorcore.conv2d_bwd." + shape, out)


def bilinear_resize(tracer, x, h, w):
    with tracer.span("tensorcore.bilinear_resize_fwd"):
        out = tc.bilinear_resize(x, h, w)
    return _timed_grad(tracer, "tensorcore.bilinear_resize_bwd", out)


def forward(tracer, net, x, relu=tc.relu):
    """RefineNet.forward, one traced op at a time. ``relu`` lets a caller see
    every ReLU input."""
    feats = {}
    h = x
    for i, (kernel, st) in enumerate(zip(net.encoder_kernels, net.topology.encoder_stages), start=1):
        h = relu(conv2d(tracer, h, kernel, stride=st.stride, padding=1))
        feats[f"enc{i}"] = h
    for block in net.blocks:
        inputs = [feats[src] for src, _ in block.spec.input_slots]
        th, tw = inputs[0].shape[2], inputs[0].shape[3]
        total = None
        for (src, _), y in zip(block.spec.input_slots, inputs):
            proj = block.projections.get(src)
            if proj is not None:
                y = conv2d(tracer, y, proj)
            if y.shape[2] != th or y.shape[3] != tw:
                y = bilinear_resize(tracer, y, th, tw)
            total = y if total is None else tc.add(total, y)
        wconv = block.wconv
        feats[block.spec.name] = tc.mul(relu(conv2d(tracer, total, wconv.kernel, padding=1)),
                                        tc.sigmoid(wconv.alpha))
    logits = tc.add(conv2d(tracer, feats[net.topology.head_source()], net.head_kernel),
                    net.head_bias)
    return tc.sigmoid(logits)


def train(tracer, dataset, config):
    """trainer.train for a config with no holdout and loss mode awl; returns
    the per-epoch loss trace and the graph node count of each step."""
    if config.loss_mode != "awl" or config.holdout_fraction != 0.0:
        raise ValueError("the replay covers loss mode awl without a holdout only")
    net = network.build_refine_net(network.default_topology(), seed=config.seed)
    awl = losses.AdaptiveLossState()
    params = net.params() + awl.params()
    opt = config.optimizer
    loss_trace, graph_nodes = [], []
    for epoch in range(config.epochs):
        if epoch in config.lr_decay_epochs:
            opt = dataclasses.replace(opt, learning_rate=opt.learning_rate * opt.lr_decay)
        order = np.random.default_rng([config.seed, epoch]).permutation(len(dataset))
        epoch_losses = []
        for start in range(0, len(order), config.batch_size):
            batch = [dataset[i] for i in order[start:start + config.batch_size]]
            tracer.op = f"step-{epoch}-{start // config.batch_size}"
            images = tc.Tensor(np.concatenate([s.image.data for s in batch], axis=0))
            with tracer.span("losses.batch_weight_maps"):
                wmap = losses.batch_weight_maps([s.annotations for s in batch])
            with tracer.span("network.forward"):
                pred = forward(tracer, net, images)
            with tracer.span("losses.adaptive_loss"):
                loss = losses.adaptive_loss(pred, wmap, awl, config.loss_config)
            epoch_losses.append(loss.item())
            graph_nodes.append(len(tc.ComputeGraph.trace(loss).nodes))
            with tracer.span("tensorcore.backward"):
                tc.backward(loss)
            with tracer.span("tensorcore.sgd_step"):
                tc.sgd_step(params, opt)
        loss_trace.append(float(np.mean(epoch_losses)))
    return loss_trace, graph_nodes


CRITERIA = ("correctness", "localness", "thickness")


def eval_image(tracer, p, annotations, fraction, thresholds):
    """One image's share of eval_criteria through the public nms_thin and
    match_boundaries; returns per-criterion matched counts per threshold and
    detected and distinct detected pixel counts summed over thresholds."""
    stats = {c: {"matched": [], "detected": 0} for c in CRITERIA}
    with tracer.span("evalbench.eval_criteria"):
        tol = evalbench.tolerance_pixels(p.shape[0], p.shape[1], fraction)
        with tracer.span("evalbench.nms_thin"):
            thin = evalbench.nms_thin(p)
        gts = [m > 0.5 for m in annotations.maps]
        for t in thresholds:
            for criterion, base, radius in (("correctness", thin, tol),
                                            ("localness", thin, tol / 4.0),
                                            ("thickness", p, tol)):
                det = base >= t
                stats[criterion]["detected"] += int(np.count_nonzero(det))
                matched = 0
                for gt in gts:
                    with tracer.span("evalbench.match." + criterion):
                        matched += evalbench.match_boundaries(det, gt, radius)[0]
                stats[criterion]["matched"].append(matched)
    low = min(thresholds)
    for criterion, base in (("correctness", thin), ("localness", thin), ("thickness", p)):
        stats[criterion]["distinct"] = int(np.count_nonzero(base >= low))
    return stats


def cli_run(argv):
    """``crispedge.cli.run`` with its console output discarded; returns the exit
    code and the call's wall time in seconds. Also the worker's untraced job."""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, time.perf_counter() - t0


def infer(tracer, params_path, image_path, scales):
    """cli infer with --scales: the library calls _cmd_infer makes, minus the
    final write, which the caller traces."""
    with tracer.span("network.build_refine_net"):
        net = network.build_refine_net(network.default_topology(), seed=0)
    with tracer.span("data.read_crb"):
        flat = data.read_crb(params_path)
    pos = 0
    for prm in net.params():
        prm.data[...] = flat[pos:pos + prm.data.size].reshape(prm.data.shape)
        pos += prm.data.size
    with tracer.span("data.read_raster"):
        image = data.read_raster(image_path)
    h, w = image.shape[2], image.shape[3]
    acc = None
    for s in scales:
        th, tw = int(round(h * s)), int(round(w * s))
        with tracer.span("tensorcore.bilinear_resize_infer"):
            scaled = image if (th, tw) == (h, w) else tc.bilinear_resize(image, th, tw)
        with tracer.span(f"network.predict.s{s:g}"):
            p = network.predict(net, scaled)
        with tracer.span("tensorcore.resize_array"):
            if p.shape != (h, w):
                p = tc.resize_array(p, h, w)
        acc = p if acc is None else acc + p
    return acc / len(scales)


def eval_job(manifest_path, fraction, n_thresholds):
    """Worker job for the traced run: the library calls cli eval makes for a
    manifest, with eval_criteria replayed per image. Returns the spans and
    the replay's counts."""
    tracer = Tracer()
    with tracer.span("data.load_manifest"):
        manifest = data.load_manifest(manifest_path)
    thresholds = evalbench.default_thresholds(n_thresholds)
    stats = []
    for entry in manifest.entries:
        with tracer.span("data.read_crb"):
            pred = data.read_crb(entry.image_path)
        maps = []
        for path in entry.ann_paths:
            with tracer.span("data.read_annotation"):
                maps.append(data.read_annotation(path))
        stats.append(eval_image(tracer, pred, losses.AnnotationSet(maps), fraction, thresholds))
    return tracer.spans, stats
