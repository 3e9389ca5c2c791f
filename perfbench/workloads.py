"""The three workloads: inputs, one measured round, output checks, and the
traced round with the per-layer figures derived from its spans.

Every round makes the same operations (library or CLI calls) on inputs made
once at set-up, so a run's share of failed operations does not depend on how
many rounds fit in it.
"""

import dataclasses
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter

import checks
import mirrors
from deadline import DeadlineWorker
from spans import NullTracer, Tracer, durations, total_ms

from crispedge import cli, data, evalbench, losses, network
from crispedge import tensorcore as tc
from crispedge.trainer import TrainConfig, train

ANNOTATORS = 3
JITTER_PX = 1.0
CRISP_SIGMA = 0.7    # about one pixel wide, like the crisp maps the paper aims for
THICK_SIGMA = 2.0    # a blurred band several pixels wide
CHECKED_THRESHOLDS = 2
FD_COORDS = 6     # parameter coordinates the finite-difference check compares
FD_TRIES = 60


def crisp_map(sample):
    p = gaussian_filter(sample.true_boundary, CRISP_SIGMA)
    return p / p.max()


def thick_map(sample):
    p = gaussian_filter(sample.true_boundary, THICK_SIGMA)
    return p / p.max()


@dataclass
class Round:
    seconds: float
    attempted: int
    failed: int = 0
    completed_items: int = 0       # samples trained, or calls that finished
    phases: dict = field(default_factory=dict)
    outputs: object = None


def median(values):
    return statistics.median(values) if values else 0.0


def sampled_thresholds(seed, n):
    rng = np.random.default_rng([seed, 7])
    return sorted(int(k) for k in rng.choice(n, size=CHECKED_THRESHOLDS, replace=False))


def check_scores(seed, images, fraction, curves, scores, rtol):
    """Recount recall and bound precision at sampled thresholds with the
    independent matcher, then check curve shape and criterion order.

    ``images`` are (map, annotator maps) pairs; ``curves`` maps criterion to
    (t, p, r, f) rows in threshold order; ``scores`` maps criterion to
    (ods, ois, ap)."""
    thresholds = [row[0] for row in curves["correctness"]]
    tol = [evalbench.tolerance_pixels(p.shape[0], p.shape[1], fraction) for p, _ in images]
    thin = [evalbench.nms_thin(p) for p, _ in images]
    for k in sampled_thresholds(seed, len(thresholds)):
        t = thresholds[k]
        for criterion, bases, scale in (("correctness", thin, 1.0), ("localness", thin, 0.25),
                                        ("thickness", [p for p, _ in images], 1.0)):
            per_image = [checks.recount(base >= t, maps, r * scale)
                         for base, (_, maps), r in zip(bases, images, tol)]
            _, precision, recall, _ = curves[criterion][k]
            checks.check_threshold(criterion, t, precision, recall, per_image, rtol)
    for criterion, curve in curves.items():
        checks.check_curve_shape(criterion, curve)
    checks.check_ods_order(scores["correctness"][0], scores["localness"][0])


def eval_layer_metrics(spans, stats, images):
    """Per-image evalbench figures from the replay's spans and counts."""
    n = max(images, 1)
    detected = sum(s[c]["detected"] for s in stats for c in mirrors.CRITERIA)
    distinct = sum(s[c]["distinct"] for s in stats for c in mirrors.CRITERIA)
    match = durations(spans, prefix="evalbench.match.")
    out = {
        "evalbench.eval_criteria_ms": total_ms(spans, "evalbench.eval_criteria") / n,
        "evalbench.nms_thin_ms": total_ms(spans, "evalbench.nms_thin") / n,
        "evalbench.match_ms_max": max(match, default=0.0),
        "evalbench.match_calls": len(match) / n,
        "evalbench.detected_px": detected / n,
        "evalbench.distinct_px_ratio": distinct / detected if detected else 0.0,
    }
    for c in mirrors.CRITERIA:
        out[f"evalbench.match_ms.{c}"] = total_ms(spans, prefix=f"evalbench.match.{c}") / n
    return out


# ---------------------------------------------------------------------------


class Workload:
    """Life cycle, as run.py drives it: ``setup`` (three times), ``start``
    (warm-up), ``round`` until time is up, ``check``, and with tracing
    ``traced_round`` then ``layer_metrics``; ``close`` in every case."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir

    def start(self):
        pass

    def close(self):
        pass

    def worker_peak_kb(self):
        return 0


class Train64(Workload):
    """train() on 64x64 synthetic samples: conv2d, graph building and
    sgd_step, with no scoring at all."""

    samples_n = 30
    config = TrainConfig(batch_size=10, epochs=3, loss_mode="awl", holdout_fraction=0.0)
    size = (64, 64)

    @property
    def steps(self):
        per_epoch = -(-self.samples_n // self.config.batch_size)
        return per_epoch * self.config.epochs

    def setup(self, tracer):
        with tracer.span("data.gen_synthetic"):
            self.samples = data.gen_synthetic(self.samples_n, self.size, ANNOTATORS,
                                              JITTER_PX, self.seed)

    def start(self):
        train(self.samples[:self.config.batch_size],
              config=dataclasses.replace(self.config, epochs=1))

    def round(self):
        t0 = time.perf_counter()
        net, report = train(self.samples, config=self.config)
        dt = time.perf_counter() - t0
        return Round(dt, attempted=1, completed_items=self.samples_n * self.config.epochs,
                     phases={"train": dt}, outputs=(net, report))

    def check(self, rounds):
        net, report = rounds[0].outputs
        checks.check_loss_trace(report.loss_trace, report.kappa_trace[-1], report.tau_trace[-1])
        for r in rounds[1:]:
            if r.outputs[1].loss_trace != report.loss_trace:
                raise checks.CheckFailed("train() is not deterministic across rounds")
        awl = losses.AdaptiveLossState(report.kappa_trace[-1], report.tau_trace[-1])
        batch = self.samples[:2]
        images = tc.Tensor(np.concatenate([s.image.data for s in batch], axis=0))
        wmap = losses.batch_weight_maps([s.annotations for s in batch])
        params = net.params() + awl.params()

        def loss():
            return losses.adaptive_loss(net.forward(images), wmap, awl).item()

        def relu_states():
            states = []

            def relu(t):
                states.append(t.data > 0.0)
                return tc.relu(t)

            mirrors.forward(NullTracer(), net, images, relu=relu)
            return states

        tc.zero_grads(params)
        tc.backward(losses.adaptive_loss(net.forward(images), wmap, awl))
        rng = np.random.default_rng([self.seed, 11])
        pairs = []
        for _ in range(FD_TRIES):
            j = int(rng.integers(len(params)))
            i = int(rng.integers(params[j].size))
            flat = params[j].data.ravel()
            # the loss has a kink where a ReLU input crosses 0; a central
            # difference that straddles one measures neither side's slope
            if checks.kinked(relu_states, flat, i):
                continue
            pairs.append((f"param {j} coord {i}", float(params[j].grad.ravel()[i]),
                          checks.central_difference(loss, flat, i)))
            if len(pairs) == FD_COORDS:
                break
        tc.zero_grads(params)
        if len(pairs) < FD_COORDS:
            raise checks.CheckFailed(f"only {len(pairs)} of {FD_TRIES} sampled coordinates "
                                     "were free of ReLU kinks")
        checks.check_gradients(pairs)

    def traced_round(self, tracer, rounds):
        t0 = time.perf_counter()
        loss_trace, nodes = mirrors.train(tracer, self.samples, self.config)
        dt = time.perf_counter() - t0
        if loss_trace != rounds[0].outputs[1].loss_trace:
            raise checks.CheckFailed("traced replay of train() diverged from train()")
        self.graph_nodes = statistics.median(nodes)
        return Round(dt, attempted=1, completed_items=self.samples_n * self.config.epochs)

    def layer_metrics(self, spans, rounds):
        steps = self.steps
        out = {}
        for shape in conv_shapes():
            for way in ("fwd", "bwd"):
                out[f"tensorcore.conv2d_{way}_ms.{shape}"] = total_ms(
                    spans, f"tensorcore.conv2d_{way}.{shape}") / steps
        for way in ("fwd", "bwd"):
            out[f"tensorcore.conv2d_{way}_ms"] = total_ms(
                spans, prefix=f"tensorcore.conv2d_{way}.") / steps
            out[f"tensorcore.bilinear_resize_{way}_ms"] = total_ms(
                spans, f"tensorcore.bilinear_resize_{way}") / steps
        layer = {
            "tensorcore.backward_ms": "tensorcore.backward",
            "tensorcore.sgd_step_ms": "tensorcore.sgd_step",
            "network.forward_ms": "network.forward",
            "losses.batch_weight_maps_ms": "losses.batch_weight_maps",
            "losses.adaptive_loss_ms": "losses.adaptive_loss",
        }
        for metric, name in layer.items():
            out[metric] = total_ms(spans, name) / steps
        out["tensorcore.graph_nodes"] = self.graph_nodes
        step_ms = 1e3 * median([r.seconds for r in rounds]) / steps
        out["trainer.step_overhead_ms"] = step_ms - sum(out[m] for m in layer)
        out["data.gen_synthetic_ms"] = total_ms(spans, "data.gen_synthetic") / self.samples_n
        out["train_samples_per_s"] = median([r.completed_items / r.seconds for r in rounds])
        return out


class Eval64(Workload):
    """One eval_criteria call over 64x64 maps, a third each crisp, thick and
    near-flat: NMS, thinning and per-threshold matching. The near-flat maps
    are the untrained ``build_refine_net(seed=0)``'s predictions on the
    samples, made at set-up; the timed call runs no network.

    Scoring time grows with boundary length, and the generator draws one to
    four shapes per image, so 24 images drawn as they come differ in total
    boundary by +-12% between seeds. The workload draws a pool three times
    that size and keeps the 24 images whose annotators' boundaries total
    nearest ``boundary_px``, which holds that spread near 3%."""

    images_n = 24
    pool_n = 72
    boundary_px = 300
    size = (64, 64)
    fraction = TrainConfig().eval_fraction   # the fraction train() scores 64x64 holdouts with

    def setup(self, tracer):
        with tracer.span("data.gen_synthetic"):
            pool = data.gen_synthetic(self.pool_n, self.size, ANNOTATORS, JITTER_PX, self.seed)
        length = np.array([s.annotations.maps.sum() for s in pool])
        keep = np.sort(np.argsort(np.abs(length - self.boundary_px), kind="stable")[:self.images_n])
        samples = [pool[i] for i in keep]
        net = network.build_refine_net(network.default_topology(), seed=0)
        makers = (crisp_map, thick_map, lambda s: network.predict(net, s.image))
        self.maps = [makers[i % 3](s) for i, s in enumerate(samples)]
        self.anns = [s.annotations for s in samples]

    def start(self):
        evalbench.eval_criteria(self.maps[:3], self.anns[:3], self.fraction)

    def round(self):
        t0 = time.perf_counter()
        report = evalbench.eval_criteria(self.maps, self.anns, self.fraction)
        dt = time.perf_counter() - t0
        return Round(dt, attempted=1, completed_items=self.images_n,
                     phases={"eval": dt}, outputs=report)

    def check(self, rounds):
        report = rounds[0].outputs
        for r in rounds[1:]:
            if r.outputs != report:
                raise checks.CheckFailed("eval_criteria is not deterministic across rounds")
        curves = {res.scores.criterion: res.curve for res in report.results()}
        scores = {res.scores.criterion: (res.scores.ods, res.scores.ois, res.scores.ap)
                  for res in report.results()}
        images = [(p, a.maps) for p, a in zip(self.maps, self.anns)]
        check_scores(self.seed, images, self.fraction, curves, scores, rtol=1e-12)
        own = self.anns[0].maps[0]
        mine = evalbench.eval_criteria([own], [losses.AnnotationSet([own])], self.fraction)
        checks.check_self_scores({res.scores.criterion: (res.scores.ods, res.scores.ois,
                                                         res.scores.ap)
                                  for res in mine.results()})

    def traced_round(self, tracer, rounds):
        report = rounds[0].outputs
        t0 = time.perf_counter()
        thresholds = evalbench.default_thresholds()
        self.stats = []
        for i, (p, a) in enumerate(zip(self.maps, self.anns)):
            tracer.op = f"image-{i}"
            self.stats.append(mirrors.eval_image(tracer, p, a, self.fraction, thresholds))
        dt = time.perf_counter() - t0
        total_gt = sum(int(np.count_nonzero(a.maps > 0.5)) for a in self.anns)
        for res in report.results():
            c = res.scores.criterion
            for k, (_, _, recall, _) in enumerate(res.curve):
                if sum(s[c]["matched"][k] for s in self.stats) / total_gt != recall:
                    raise checks.CheckFailed(f"traced replay of eval_criteria diverged ({c})")
        return Round(dt, attempted=1, completed_items=self.images_n)

    def layer_metrics(self, spans, rounds):
        out = eval_layer_metrics(spans, self.stats, self.images_n)
        out["evalbench.match_stalled"] = 0
        out["data.gen_synthetic_ms"] = total_ms(spans, "data.gen_synthetic") / self.pool_n
        out["eval_images_per_s"] = median([r.completed_items / r.seconds for r in rounds])
        return out


class Bsds(Workload):
    """cli infer at three scales, then cli eval on one-image manifests, at
    BSDS size. The workload seed draws the image the network infers. The
    scored maps come from generator seed 0 whatever the workload seed: its
    image 1's crisp map stalls the matcher, so exactly one eval per round
    misses the deadline, and a fixed eval set keeps the scoring cost, which
    depends on each image's boundary length, the same in every run."""

    size = (321, 481)
    scales = "0.5,1,2"
    fraction = float(cli.DEFAULTS["eval.max_dist_fraction"])   # what crispedge eval uses
    deadline_s = 5.0
    eval_tags = ("thick", "crisp0", "crisp1")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.worker = DeadlineWorker(self.deadline_s)

    def path(self, name):
        return os.path.join(self.dir, name)

    def setup(self, tracer):
        os.makedirs(self.dir, exist_ok=True)
        with tracer.span("data.gen_synthetic"):
            sample = data.gen_synthetic(1, self.size, ANNOTATORS, JITTER_PX, self.seed)[0]
            pinned = data.gen_synthetic(2, self.size, ANNOTATORS, JITTER_PX, 0)
        self.net = network.build_refine_net(network.default_topology(), seed=0)
        data.write_crb(self.path("params.crb"),
                       np.concatenate([p.data.ravel() for p in self.net.params()]))
        data.write_raster(sample.image, self.path("image.pgm"))
        self.image = np.round(np.clip(sample.image.data[0, 0], 0.0, 1.0) * 255) / 255
        self.maps = {"thick": thick_map(pinned[0]), "crisp0": crisp_map(pinned[0]),
                     "crisp1": crisp_map(pinned[1])}
        owners = {"thick": pinned[0], "crisp0": pinned[0], "crisp1": pinned[1]}
        self.anns = {}
        for tag, s in owners.items():
            names = []
            for k in range(s.annotations.n):
                names.append(f"{tag}-ann{k}.pgm")
                data.write_annotation(self.path(names[-1]), s.annotations.maps[k])
            self._manifest(tag, self.maps[tag], names)
            self.anns[tag] = s.annotations.maps
        data.write_annotation(self.path("self-ann.pgm"), sample.annotations.maps[0])
        self._manifest("self", sample.annotations.maps[0], ["self-ann.pgm"])

    def _manifest(self, tag, pred, ann_names):
        data.write_crb(self.path(f"{tag}.crb"), pred)
        with open(self.path(f"{tag}.tsv"), "w", encoding="ascii") as fh:
            fh.write(f"{tag}\t{tag}.crb\t{','.join(ann_names)}\ttest\n")

    def start(self):
        self.worker.start()
        mirrors.cli_run(self._infer_argv(self.path("pred-warm.crb")))
        self.worker.call(mirrors.cli_run, self._eval_argv("thick"))

    def close(self):
        self.worker.close()

    def worker_peak_kb(self):
        return self.worker.peak_rss_kb

    def _infer_argv(self, out):
        return ["infer", "--params", self.path("params.crb"), "--image", self.path("image.pgm"),
                "--scales", self.scales, "--out", out]

    def _eval_argv(self, tag):
        return ["eval", "--manifest", self.path(f"{tag}.tsv"), "--out-dir", self.path(f"out-{tag}")]

    def round(self):
        t0 = time.perf_counter()
        code, infer_cli = mirrors.cli_run(self._infer_argv(self.path("pred.crb")))
        if code != 0:
            raise checks.CheckFailed(f"crispedge infer exited {code}")
        t1 = time.perf_counter()
        eval_cli = {}
        for tag in self.eval_tags:
            ok, result = self.worker.call(mirrors.cli_run, self._eval_argv(tag))
            if ok:
                code, eval_cli[tag] = result
                if code != 0:
                    raise checks.CheckFailed(f"crispedge eval on {tag} exited {code}")
        t2 = time.perf_counter()
        failed = len(self.eval_tags) - len(eval_cli)
        outputs = {"pred": data.read_crb(self.path("pred.crb")), "infer_cli": infer_cli,
                   "eval_cli": eval_cli}
        for tag in eval_cli:
            with open(self.path(f"out-{tag}/scores.txt"), encoding="ascii") as fh:
                outputs[tag] = fh.read()
        return Round(t2 - t0, attempted=1 + len(self.eval_tags), failed=failed,
                     completed_items=1 + len(eval_cli),
                     phases={"infer": t1 - t0, "eval": t2 - t1}, outputs=outputs)

    def _read_curves(self, tag):
        curves = {}
        for c in mirrors.CRITERIA:
            with open(self.path(f"out-{tag}/pr_{c}.csv"), encoding="ascii") as fh:
                rows = fh.read().split()[1:]
            curves[c] = [tuple(float(v) for v in row.split(",")) for row in rows]
        return curves

    def _read_scores(self, tag):
        with open(self.path(f"out-{tag}/scores.txt"), encoding="ascii") as fh:
            vals = dict(line.split("=") for line in fh.read().split())
        return {c: tuple(float(vals[f"{k}_{c[0]}"]) for k in ("ods", "ois", "ap"))
                for c in mirrors.CRITERIA}

    def check(self, rounds):
        first = rounds[0].outputs
        for r in rounds[1:]:
            same = np.array_equal(r.outputs["pred"], first["pred"]) and all(
                r.outputs.get(tag) == first.get(tag) for tag in self.eval_tags)
            if not same:
                raise checks.CheckFailed("cli outputs differ between rounds")
        checks.check_infer(first["pred"], self._oracle_multiscale())
        for tag in first["eval_cli"]:
            check_scores(self.seed, [(self.maps[tag], self.anns[tag])], self.fraction,
                         self._read_curves(tag), self._read_scores(tag), rtol=1e-5)
        ok, result = self.worker.call(mirrors.cli_run, self._eval_argv("self"))
        if not ok or result[0] != 0:
            raise checks.CheckFailed("self-scoring eval did not complete")
        checks.check_self_scores(self._read_scores("self"))

    def _oracle_multiscale(self):
        from oracles import bilinear_scalar   # tests/oracles.py, the repo's scalar-loop oracle

        h, w = self.image.shape
        scales = [float(v) for v in self.scales.split(",")]
        acc = 0.0
        for s in scales:
            th, tw = int(round(h * s)), int(round(w * s))
            scaled = self.image if (th, tw) == (h, w) else bilinear_scalar(self.image, th, tw)
            p = network.predict(self.net, tc.Tensor(scaled))
            acc = acc + (p if (th, tw) == (h, w) else bilinear_scalar(p, h, w))
        return acc / len(scales)

    def traced_round(self, tracer, rounds):
        t0 = time.perf_counter()
        tracer.op = "infer"
        scales = tuple(float(v) for v in self.scales.split(","))
        with tracer.span("cli.infer") as infer_span:
            pred = mirrors.infer(tracer, self.path("params.crb"), self.path("image.pgm"), scales)
            with tracer.span("data.write_crb"):
                data.write_crb(self.path("pred-traced.crb"), pred)
        if not np.array_equal(pred, rounds[0].outputs["pred"]):
            raise checks.CheckFailed("traced replay of cli infer diverged")
        self.infer_ms = 1e3 * (infer_span["end"] - infer_span["start"])
        self.stats, self.eval_lib_ms = [], {}
        for tag in self.eval_tags:
            tracer.op = f"eval-{tag}"
            n0 = len(tracer.spans)
            with tracer.span("cli.eval"):
                ok, result = self.worker.call(mirrors.eval_job, self.path(f"{tag}.tsv"),
                                              self.fraction, len(evalbench.default_thresholds()))
                if ok:
                    tracer.adopt(result[0])
            if ok:
                self.stats.extend(result[1])
                self._check_replay(tag, result[1][0])
                mine = tracer.spans[n0:]
                self.eval_lib_ms[tag] = sum(total_ms(mine, n) for n in (
                    "data.load_manifest", "data.read_crb", "data.read_annotation",
                    "evalbench.eval_criteria"))
        dt = time.perf_counter() - t0
        done = len(self.eval_lib_ms)
        self.traced_stalls = len(self.eval_tags) - done
        return Round(dt, attempted=1 + len(self.eval_tags), failed=self.traced_stalls,
                     completed_items=1 + done)

    def _check_replay(self, tag, stats):
        total_gt = int(np.count_nonzero(np.asarray(self.anns[tag]) > 0.5))
        curves = self._read_curves(tag)
        for c in mirrors.CRITERIA:
            for k, row in enumerate(curves[c]):
                if float(f"{stats[c]['matched'][k] / total_gt:.6g}") != row[2]:
                    raise checks.CheckFailed(f"traced replay of eval on {tag} diverged ({c})")

    def layer_metrics(self, spans, rounds):
        completed = len(self.eval_lib_ms)
        out = eval_layer_metrics(spans, self.stats, completed)
        out["evalbench.match_stalled"] = self.traced_stalls
        for s in ("0.5", "1", "2"):
            out[f"network.predict_ms.s{s}"] = total_ms(spans, f"network.predict.s{s}")
        out["data.gen_synthetic_ms"] = total_ms(spans, "data.gen_synthetic") / 3
        out["data.read_raster_ms"] = total_ms(spans, "data.read_raster")
        out["data.write_crb_ms"] = total_ms(spans, "data.write_crb")
        out["data.read_crb_ms"] = total_ms(spans, "data.read_crb") / (1 + completed)
        out["data.read_annotation_ms"] = total_ms(spans, "data.read_annotation") / max(completed, 1)
        infer_cli = median([r.outputs["infer_cli"] for r in rounds])
        out["cli.infer_overhead_ms"] = 1e3 * infer_cli - self.infer_ms
        out["cli.eval_overhead_ms"] = median([
            1e3 * median([r.outputs["eval_cli"][tag] for r in rounds]) - lib
            for tag, lib in self.eval_lib_ms.items()])
        out["infer_images_per_s"] = median([1 / r.phases["infer"] for r in rounds])
        out["eval_images_per_s"] = median([(r.completed_items - 1) / r.phases["eval"]
                                           for r in rounds])
        return out


WORKLOADS = {"train-64": Train64, "eval-64": Eval64, "bsds-321x481": Bsds}


def conv_shapes():
    """conv2d shapes of default_topology() in a batch-10 64x64 training step,
    in first-call order."""
    tracer = Tracer()
    net = network.build_refine_net(network.default_topology(), seed=0)
    mirrors.forward(tracer, net, tc.Tensor(np.zeros((1, 1) + Train64.size)))
    names = []
    for s in tracer.spans:
        if s["name"].startswith("tensorcore.conv2d_fwd."):
            shape = s["name"][len("tensorcore.conv2d_fwd."):]
            if shape not in names:
                names.append(shape)
    return names
