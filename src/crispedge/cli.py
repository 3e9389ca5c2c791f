"""Command-line front end: dataset generation, training, inference,
benchmark evaluation, gradient checking, and loss ablations.

Exit codes: 0 success, 2 usage, 3 configuration, 4 data, 5 numeric.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .data import (
    gen_synthetic,
    load_dataset,
    load_manifest,
    read_annotation,
    read_ascii_lines,
    read_crb,
    read_image,
    read_raster,
    save_dataset,
    write_crb,
)
from .errors import (
    ConfigError,
    ContractError,
    DomainError,
    ParseError,
    ShapeError,
    TopologyError,
    TrainingError,
    ValidationError,
)
from .evalbench import (
    N_THRESHOLDS,
    as_probability_map,
    eval_criteria,
    fmt,
    pr_curve_csv,
    score_block,
    tolerance_pixels,
)
from .gradcheck import FD_LIMIT, audit, worst_of
from .losses import AnnotationSet, LossConfig
from .network import ScaleSet, build_refine_net, predict, predict_multiscale
from .tensorcore import OptimizerConfig
from .trainer import (
    LOSS_MODES,
    TrainConfig,
    ablation_csv,
    ablation_run,
    holdout_split,
    loss_trace_csv,
    train,
)


def _fields(prefix, config, skip=()):
    return {f"{prefix}.{f.name}": getattr(config, f.name)
            for f in dataclasses.fields(config) if f.name not in skip}


# every setting with its default, whose type is the kind its text parses to; the
# train.*, opt.* and loss.* keys are the fields of the training config dataclasses
DEFAULTS = {
    "gen.count": 200,
    "gen.height": 64,
    "gen.width": 64,
    "gen.annotators": 3,
    "gen.jitter_px": 1.0,
    **_fields("train", TrainConfig(), skip=("seed", "optimizer", "loss_config")),
    **_fields("opt", TrainConfig().optimizer),
    **_fields("loss", TrainConfig().loss_config),
    "eval.max_dist_fraction": 0.0075,
    "eval.n_thresholds": N_THRESHOLDS,
    "infer.scales": (),
}

# a list setting is comma-separated text; this is the kind of each element
_ELEMENT_KIND = {"train.lr_decay_epochs": int, "infer.scales": float}

# what a config value of each kind must look like, alone and in a list
_WANTS = {int: ("an integer", "integers"), float: ("a number", "numbers")}


def _parse(key, text):
    if key in _ELEMENT_KIND:
        kind, raw = _ELEMENT_KIND[key], text.strip()
        try:
            return tuple(kind(p) for p in raw.split(",")) if raw else ()
        except ValueError as exc:
            raise ConfigError(f"config key '{key}' wants comma-separated {_WANTS[kind][1]}, "
                              f"got '{raw}'") from exc
    kind = type(DEFAULTS[key])
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"config key '{key}' wants {_WANTS[kind][0]}, got '{text}'") from exc


def _load_config(path, overrides):
    """Defaults overlaid by a `key = value` file, overlaid by flags, each
    value parsed to its key's kind as it is read."""
    cfg = dict(DEFAULTS)
    if path is not None:
        try:
            lines = read_ascii_lines(path)
        except (OSError, ParseError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = stripped.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown config key '{key}'")
            cfg[key] = _parse(key, val.strip())
    # a scalar flag arrives typed by argparse, a list flag as its text
    cfg.update((key, _parse(key, str(val))) for key, val in overrides.items())
    return cfg


def _flat_params(net):
    return np.concatenate([p.data.ravel() for p in net.params()])


def _load_params_into(net, path):
    flat = read_crb(path)
    if flat.ndim != 1:
        raise ValidationError(f"{path}: parameter blob must be 1-D, got {flat.ndim}-D")
    params = net.params()
    need = sum(p.data.size for p in params)
    if flat.size != need:
        raise ValidationError(f"{path}: parameter count {flat.size} does not match "
                              f"the network's {need}")
    pos = 0
    for p in params:
        p.data[...] = flat[pos:pos + p.data.size].reshape(p.data.shape)
        pos += p.data.size


def _section(cfg, prefix):
    return {key[len(prefix) + 1:]: val for key, val in cfg.items() if key.startswith(prefix + ".")}


def _train_config(cfg, seed):
    return TrainConfig(seed=seed, optimizer=OptimizerConfig(**_section(cfg, "opt")),
                       loss_config=LossConfig(**_section(cfg, "loss")), **_section(cfg, "train"))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(cfg, args):
    # the split column is train's holdout, so TrainConfig checks its fraction
    holdout = TrainConfig(holdout_fraction=cfg["train.holdout_fraction"])
    samples = gen_synthetic(
        cfg["gen.count"],
        (cfg["gen.height"], cfg["gen.width"]),
        cfg["gen.annotators"],
        cfg["gen.jitter_px"],
        seed=args.seed,
    )
    held = holdout_split([s.id for s in samples], holdout.holdout_fraction)
    splits = {s.id: ("test" if s.id in held else "train") for s in samples}
    manifest_path = save_dataset(samples, args.out_dir, splits=splits)
    print(f"wrote {len(samples)} samples to {manifest_path}")
    return 0


def _cmd_train(cfg, args):
    dataset = load_dataset(args.manifest)
    config = _train_config(cfg, args.seed)
    net, report = train(dataset, config)
    os.makedirs(args.out_dir, exist_ok=True)
    params_path = os.path.join(args.out_dir, "params.crb")
    write_crb(params_path, _flat_params(net))
    with open(os.path.join(args.out_dir, "report.csv"), "w", encoding="ascii") as fh:
        fh.write(loss_trace_csv(report))
    if report.scores is not None:
        block = score_block(report.scores)
        with open(os.path.join(args.out_dir, "scores.txt"), "w", encoding="ascii") as fh:
            fh.write(block)
        sys.stdout.write(block)
    print(f"wrote {params_path}")
    return 0


def _cmd_infer(cfg, args):
    net = build_refine_net(seed=0)
    _load_params_into(net, args.params)
    image = read_raster(args.image)
    scales = cfg["infer.scales"]
    if scales:
        pred = predict_multiscale(net, image, ScaleSet(scales))
    else:
        pred = predict(net, image)
    out = args.out or (os.path.splitext(args.image)[0] + "-pred.crb")
    write_crb(out, as_probability_map(pred))
    print(f"wrote {out}")
    return 0


def _read_prediction(path):
    if path.endswith(".crb"):
        arr = read_crb(path)
        if arr.ndim != 2:
            raise ValidationError(f"{path}: prediction map must be 2-D, got {arr.ndim}-D")
        return arr
    return read_image(path)


def _cmd_eval(cfg, args):
    manifest = load_manifest(args.manifest)
    preds, anns = [], []
    for entry in manifest.entries:
        preds.append(_read_prediction(entry.image_path))
        maps = [read_annotation(p) for p in entry.ann_paths]
        anns.append(AnnotationSet(maps))
    fraction = cfg["eval.max_dist_fraction"]
    report = eval_criteria(preds, anns, fraction,
                           n_thresholds=cfg["eval.n_thresholds"])
    os.makedirs(args.out_dir, exist_ok=True)
    block = score_block(report)
    with open(os.path.join(args.out_dir, "scores.txt"), "w", encoding="ascii") as fh:
        fh.write(block)
    for res in report.results():
        name = os.path.join(args.out_dir, f"pr_{res.scores.criterion}.csv")
        with open(name, "w", encoding="ascii") as fh:
            fh.write(pr_curve_csv(res.curve))
    sizes = list(dict.fromkeys(p.shape for p in preds))
    for h, w in sizes:
        tag = f" ({h}x{w})" if len(sizes) > 1 else ""
        print(f"d0 = {tolerance_pixels(h, w, fraction):.2f} px{tag}")
    sys.stdout.write(block)
    return 0


def _cmd_ablate(cfg, args):
    dataset = load_dataset(args.manifest)
    config = _train_config(cfg, args.seed)
    modes = tuple(args.modes.split(",")) if args.modes else LOSS_MODES
    rows = ablation_run(dataset, modes, config)
    csv = ablation_csv(rows)
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "ablation.csv"), "w", encoding="ascii") as fh:
        fh.write(csv)
    sys.stdout.write(csv)
    return 0


def _cmd_gradcheck(cfg, args):
    rows = audit(args.seed)
    for name, worst in rows:
        print(f"{name} {fmt(worst)}")
    worst = worst_of(w for _, w in rows)
    print(f"worst {fmt(worst)}")
    if not worst <= FD_LIMIT:
        print(f"crispedge: gradcheck: max relative error {fmt(worst)} "
              f"exceeds {FD_LIMIT}", file=sys.stderr)
        return 5
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser():
    parser = argparse.ArgumentParser(prog="crispedge",
                                     description="Crisp boundary detection toolkit.")
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key = value config file")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--show-config", action="store_true",
                        help="print the effective configuration and exit")

    def setting(sp, flag, key, **kw):
        # the value lands under its config key, typed like its default unless
        # it is a list; run() reads it from there
        kind = None if key in _ELEMENT_KIND else type(DEFAULTS[key])
        sp.add_argument(flag, dest=key, metavar=flag[2:].upper().replace("-", "_"),
                        type=kind, **kw)

    sp = subs.add_parser("gen", help="generate a synthetic dataset")
    common(sp)
    setting(sp, "--count", "gen.count")
    setting(sp, "--height", "gen.height")
    setting(sp, "--width", "gen.width")
    setting(sp, "--annotators", "gen.annotators")
    setting(sp, "--jitter", "gen.jitter_px")
    sp.add_argument("--out-dir", default="dataset")

    sp = subs.add_parser("train", help="train the refinement network")
    common(sp)
    sp.add_argument("--manifest", required=True)
    setting(sp, "--epochs", "train.epochs")
    setting(sp, "--batch-size", "train.batch_size")
    setting(sp, "--loss-mode", "train.loss_mode")
    setting(sp, "--learning-rate", "opt.learning_rate")
    sp.add_argument("--out-dir", default="train-out")

    sp = subs.add_parser("infer", help="run the network on one image")
    common(sp)
    sp.add_argument("--params", required=True)
    sp.add_argument("--image", required=True)
    setting(sp, "--scales", "infer.scales",
            help="comma-separated scale factors, e.g. 0.5,1,2")
    sp.add_argument("--out")

    sp = subs.add_parser("eval", help="benchmark predictions against annotations")
    common(sp)
    sp.add_argument("--manifest", required=True)
    setting(sp, "--max-dist-fraction", "eval.max_dist_fraction")
    setting(sp, "--n-thresholds", "eval.n_thresholds")
    sp.add_argument("--out-dir", default="eval-out")

    sp = subs.add_parser("gradcheck", help="finite-difference gradient audit")
    common(sp)

    sp = subs.add_parser("ablate", help="train once per loss mode and compare")
    common(sp)
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--modes", help="comma-separated loss modes")
    setting(sp, "--epochs", "train.epochs")
    sp.add_argument("--out-dir", default="ablate-out")

    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "ablate": _cmd_ablate,
}

_DATA_ERRORS = (ParseError, ValidationError, ShapeError, OSError)
_CONFIG_ERRORS = (ConfigError, ContractError, TopologyError)
_NUMERIC_ERRORS = (DomainError, TrainingError, FloatingPointError, OverflowError)


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    sub = args.command
    try:
        if args.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {args.seed}")
        overrides = {key: val for key, val in vars(args).items()
                     if key in DEFAULTS and val is not None}
        cfg = _load_config(args.config, overrides)
        if args.show_config:
            for key in sorted(cfg):
                val = cfg[key]
                print(f"{key} = {','.join(map(str, val)) if isinstance(val, tuple) else val}")
            return 0
        return _COMMANDS[sub](cfg, args)
    except _CONFIG_ERRORS as exc:
        print(f"crispedge: {sub}: {exc}", file=sys.stderr)
        return 3
    except _DATA_ERRORS as exc:
        print(f"crispedge: {sub}: {exc}", file=sys.stderr)
        return 4
    except _NUMERIC_ERRORS as exc:
        print(f"crispedge: {sub}: {exc}", file=sys.stderr)
        return 5


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
