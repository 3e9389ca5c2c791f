import os
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from crispedge import cli, tensorcore as tc
from crispedge.cli import run
from crispedge.data import (
    gen_synthetic,
    load_dataset,
    read_crb,
    save_dataset,
    write_annotation,
    write_crb,
    write_image,
)
from crispedge.network import build_refine_net, default_topology
from crispedge.trainer import TrainConfig


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_bytes_map(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for n in sorted(names):
            p = os.path.join(dirpath, n)
            out[os.path.relpath(p, root)] = Path(p).read_bytes()
    return out


def make_dataset(tmp_path, n=6, size=(32, 32), annotators=2, jitter=0.5, seed=1):
    samples = gen_synthetic(n, size, annotators, jitter, seed=seed)
    return save_dataset(samples, str(tmp_path / "ds")), samples


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_loadable_dataset(tmp_path, capsys):
    out = str(tmp_path / "ds")
    code, _, err = invoke(capsys, "gen", "--count", "4", "--height", "32",
                          "--width", "32", "--annotators", "2", "--jitter", "0.5",
                          "--seed", "3", "--out-dir", out)
    assert code == 0, err
    samples = load_dataset(os.path.join(out, "manifest.tsv"))
    assert len(samples) == 4
    assert samples[0].annotations.n == 2


def test_gen_byte_identical_across_runs(tmp_path, capsys):
    args = ["gen", "--count", "3", "--height", "32", "--width", "32",
            "--annotators", "2", "--jitter", "1.0", "--seed", "5"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert invoke(capsys, *args, "--out-dir", a)[0] == 0
    assert invoke(capsys, *args, "--out-dir", b)[0] == 0
    assert read_bytes_map(a) == read_bytes_map(b)


# ---------------------------------------------------------------------------
# train / infer


def test_train_outputs_and_determinism(tmp_path, capsys):
    manifest, _ = make_dataset(tmp_path)
    args = ["train", "--manifest", manifest, "--epochs", "1", "--batch-size", "3",
            "--loss-mode", "sce", "--seed", "0"]
    o1, o2 = str(tmp_path / "t1"), str(tmp_path / "t2")
    code, out, err = invoke(capsys, *args, "--out-dir", o1)
    assert code == 0, err
    assert "ods_c=" in out
    assert invoke(capsys, *args, "--out-dir", o2)[0] == 0
    assert read_bytes_map(o1) == read_bytes_map(o2)
    report = Path(o1, "report.csv").read_text()
    assert report.startswith("epoch,loss")
    assert os.path.exists(os.path.join(o1, "scores.txt"))


def test_infer_scales_one_equals_plain(tmp_path, capsys):
    manifest, samples = make_dataset(tmp_path, n=4)
    tdir = str(tmp_path / "t")
    assert invoke(capsys, "train", "--manifest", manifest, "--epochs", "0",
                  "--seed", "2", "--out-dir", tdir)[0] == 0
    params = os.path.join(tdir, "params.crb")
    image = str(tmp_path / "ds" / f"{samples[0].id}.pgm")
    p1, p2 = str(tmp_path / "p1.crb"), str(tmp_path / "p2.crb")
    assert invoke(capsys, "infer", "--params", params, "--image", image, "--out", p1)[0] == 0
    assert invoke(capsys, "infer", "--params", params, "--image", image,
                  "--scales", "1", "--out", p2)[0] == 0
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_infer_lies_within_float32_bound_of_float64_forward(tmp_path, capsys):
    # infer predicts in float32; see F32_ATOL in test_network.py
    net = build_refine_net(default_topology(), seed=4)
    params = str(tmp_path / "params.crb")
    write_crb(params, np.concatenate([p.data.ravel() for p in net.params()]))
    image = np.random.default_rng(4).uniform(0, 1, (40, 56))
    write_crb(str(tmp_path / "image.crb"), image)
    out = str(tmp_path / "p.crb")
    code, _, err = invoke(capsys, "infer", "--params", params, "--image",
                          str(tmp_path / "image.crb"), "--out", out)
    assert code == 0, err
    want = net.forward(tc.Tensor(image)).data[0, 0]
    assert np.allclose(read_crb(out), want, rtol=0, atol=32 * float(np.finfo(np.float32).eps))


def test_infer_multiscale_runs(tmp_path, capsys):
    manifest, samples = make_dataset(tmp_path, n=2)
    tdir = str(tmp_path / "t")
    invoke(capsys, "train", "--manifest", manifest, "--epochs", "0", "--out-dir", tdir)
    image = str(tmp_path / "ds" / f"{samples[0].id}.pgm")
    out = str(tmp_path / "ms.crb")
    code, _, err = invoke(capsys, "infer", "--params", os.path.join(tdir, "params.crb"),
                          "--image", image, "--scales", "0.5,1,2", "--out", out)
    assert code == 0, err
    assert read_crb(out).shape == (32, 32)


def test_infer_param_size_mismatch_is_data_error(tmp_path, capsys):
    manifest, samples = make_dataset(tmp_path, n=2)
    bad = str(tmp_path / "bad.crb")
    write_crb(bad, np.zeros(17))
    image = str(tmp_path / "ds" / f"{samples[0].id}.pgm")
    code, _, err = invoke(capsys, "infer", "--params", bad, "--image", image)
    assert code == 4
    assert err.startswith("crispedge: infer:")


# ---------------------------------------------------------------------------
# eval


def test_eval_d0_line_matches_standard_geometry(tmp_path, capsys):
    pred = str(tmp_path / "pred.crb")
    write_crb(pred, np.zeros((481, 321)))
    ann = str(tmp_path / "ann.pgm")
    m = np.zeros((481, 321))
    m[240, 10:300] = 1.0
    write_annotation(ann, m)
    manifest = tmp_path / "m.tsv"
    manifest.write_text("x\tpred.crb\tann.pgm\ttest\n")
    code, out, err = invoke(capsys, "eval", "--manifest", str(manifest),
                            "--max-dist-fraction", "0.0075",
                            "--out-dir", str(tmp_path / "e"))
    assert code == 0, err
    assert "d0 = 4.34 px" in out
    for name in ("scores.txt", "pr_correctness.csv", "pr_localness.csv",
                 "pr_thickness.csv"):
        assert os.path.exists(str(tmp_path / "e" / name))
    csv = (tmp_path / "e" / "pr_correctness.csv").read_text()
    assert csv.startswith("threshold,precision,recall,f\n")


def test_eval_d0_line_per_size_when_sizes_differ(tmp_path, capsys):
    lines = []
    for i, (h, w) in enumerate([(481, 321), (64, 64), (481, 321)]):
        write_crb(str(tmp_path / f"p{i}.crb"), np.zeros((h, w)))
        m = np.zeros((h, w))
        m[h // 2, 5:w - 5] = 1.0
        write_annotation(str(tmp_path / f"a{i}.pgm"), m)
        lines.append(f"x{i}\tp{i}.crb\ta{i}.pgm\ttest\n")
    manifest = tmp_path / "m.tsv"
    manifest.write_text("".join(lines))
    code, out, err = invoke(capsys, "eval", "--manifest", str(manifest),
                            "--max-dist-fraction", "0.0075",
                            "--out-dir", str(tmp_path / "e"))
    assert code == 0, err
    assert out.startswith("d0 = 4.34 px (481x321)\nd0 = 0.68 px (64x64)\nods_c=")


def eval_manifest_from_annotations(tmp_path, n=4):
    samples = gen_synthetic(n, (32, 32), 2, 0.5, seed=2)
    ds = tmp_path / "evds"
    ds.mkdir()
    lines = []
    for s in samples:
        pred = f"{s.id}-pred.crb"
        write_crb(str(ds / pred), s.annotations.maps[0])
        anns = []
        for j in range(s.annotations.n):
            name = f"{s.id}-ann{j}.pgm"
            write_annotation(str(ds / name), s.annotations.maps[j])
            anns.append(name)
        lines.append(f"{s.id}\t{pred}\t{','.join(anns)}\ttest\n")
    mp = ds / "m.tsv"
    mp.write_text("".join(lines))
    return str(mp)


def test_eval_rerun_is_idempotent(tmp_path, capsys):
    manifest = eval_manifest_from_annotations(tmp_path, n=2)
    inputs_before = read_bytes_map(os.path.dirname(manifest))
    out = str(tmp_path / "e")
    assert invoke(capsys, "eval", "--manifest", manifest, "--out-dir", out)[0] == 0
    first = read_bytes_map(out)
    assert invoke(capsys, "eval", "--manifest", manifest, "--out-dir", out)[0] == 0
    assert read_bytes_map(out) == first
    assert read_bytes_map(os.path.dirname(manifest)) == inputs_before


# ---------------------------------------------------------------------------
# config handling and exit codes


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("# comment\ngen.count = 3\ngen.height = 32\ngen.width = 32\n")
    out = str(tmp_path / "ds")
    code, _, err = invoke(capsys, "gen", "--config", str(cfgfile), "--count", "2",
                          "--annotators", "1", "--jitter", "0", "--out-dir", out)
    assert code == 0, err
    assert len(load_dataset(os.path.join(out, "manifest.tsv"))) == 2


def test_show_config_reports_effective_values(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("gen.count = 7\n")
    code, out, _ = invoke(capsys, "gen", "--config", str(cfgfile), "--height", "48",
                          "--show-config")
    assert code == 0
    assert "gen.count = 7" in out
    assert "gen.height = 48" in out
    assert "eval.max_dist_fraction = 0.0075" in out


def test_unknown_config_key_exits_3(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("gen.coutn = 3\n")
    code, _, err = invoke(capsys, "gen", "--config", str(cfgfile))
    assert code == 3
    assert err.startswith("crispedge: gen:")
    assert "gen.coutn" in err


def test_cli_defaults_give_the_default_train_config():
    assert cli._train_config(cli._load_config(None, {}), 0) == TrainConfig()


# a valid non-default value of each training key: its text and its parsed value;
# a key missing here fails the test below
TRAINING_KEY_VALUES = {
    "train.batch_size": ("4", 4),
    "train.epochs": ("3", 3),
    "train.loss_mode": ("sce+sd", "sce+sd"),
    "train.lr_decay_epochs": ("5, 10", (5, 10)),
    "train.holdout_fraction": ("0.25", 0.25),
    "train.eval_fraction": ("0.1", 0.1),
    "opt.learning_rate": ("0.02", 0.02),
    "opt.momentum": ("0.5", 0.5),
    "opt.weight_decay": ("0", 0.0),
    "opt.lr_decay": ("0.5", 0.5),
    "loss.zeta": ("0.2", 0.2),
}


@pytest.mark.parametrize("key", [key for key in cli.DEFAULTS
                                 if key.split(".")[0] in ("train", "opt", "loss")])
def test_every_training_key_reaches_train_config(tmp_path, key):
    text, want = TRAINING_KEY_VALUES[key]
    (tmp_path / "c.cfg").write_text(f"{key} = {text}\n")
    config = cli._train_config(cli._load_config(str(tmp_path / "c.cfg"), {}), 0)
    section, name = key.split(".")
    holder = {"train": config, "opt": config.optimizer, "loss": config.loss_config}[section]
    assert getattr(holder, name) == want != cli.DEFAULTS[key]


@pytest.mark.parametrize("lines", ["", "infer.scales = 0.5,1,2\ntrain.lr_decay_epochs = 5,10\n"],
                         ids=["defaults", "lists"])
def test_show_config_reads_back_as_the_same_config(tmp_path, capsys, lines):
    first, shown = tmp_path / "first.cfg", tmp_path / "shown.cfg"
    first.write_text(lines)
    code, out, err = invoke(capsys, "gen", "--config", str(first), "--show-config")
    assert code == 0, err
    assert "loss.zeta = 0.1\n" in out
    shown.write_text(out)
    assert cli._load_config(str(shown), {}) == cli._load_config(str(first), {})
    assert invoke(capsys, "gen", "--config", str(shown), "--show-config")[1] == out


def test_bad_config_value_exits_3(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("gen.count = many\n")
    code, _, err = invoke(capsys, "gen", "--config", str(cfgfile))
    assert code == 3
    assert err.startswith("crispedge: gen:")


# every value in the file is parsed, also one that the command does not read
BAD_CONFIG_VALUES = [
    ("gen.count", "gen.count = x", "gen --out-dir {dir}/g",
     "config key 'gen.count' wants an integer, got 'x'"),
    ("opt.momentum", "opt.momentum = x", "train --manifest {dir}/ds/manifest.tsv --out-dir {dir}/t",
     "config key 'opt.momentum' wants a number, got 'x'"),
    ("gen-opt.momentum", "opt.momentum = x", "gen --out-dir {dir}/g",
     "config key 'opt.momentum' wants a number, got 'x'"),
    ("train.lr_decay_epochs", "train.lr_decay_epochs = 1,x",
     "train --manifest {dir}/ds/manifest.tsv --out-dir {dir}/t",
     "config key 'train.lr_decay_epochs' wants comma-separated integers, got '1,x'"),
    ("infer.scales", "infer.scales = 1,x", "infer --params {dir}/params.crb --image {dir}/image.pgm",
     "config key 'infer.scales' wants comma-separated numbers, got '1,x'"),
    ("train.manual_kappa", "train.manual_kappa = 1",
     "train --manifest {dir}/ds/manifest.tsv --out-dir {dir}/t",
     "{dir}/c.cfg:1: unknown config key 'train.manual_kappa'"),
    # the loss guards are constants of the losses module, not settings
    ("loss.epsilon", "loss.epsilon = 1e-8",
     "train --manifest {dir}/ds/manifest.tsv --out-dir {dir}/t",
     "{dir}/c.cfg:1: unknown config key 'loss.epsilon'"),
    ("loss.clamp", "loss.clamp = 0.001",
     "train --manifest {dir}/ds/manifest.tsv --out-dir {dir}/t",
     "{dir}/c.cfg:1: unknown config key 'loss.clamp'"),
]


@pytest.mark.parametrize("line,argv,message", [case[1:] for case in BAD_CONFIG_VALUES],
                         ids=[case[0] for case in BAD_CONFIG_VALUES])
def test_bad_config_value_message(tmp_path, capsys, line, argv, message):
    exit_case_inputs(tmp_path)
    (tmp_path / "c.cfg").write_text(line + "\n")
    args = argv.format(dir=tmp_path).split()
    code, _, err = invoke(capsys, *args, "--config", str(tmp_path / "c.cfg"))
    assert code == 3
    assert err == f"crispedge: {args[0]}: {message.format(dir=tmp_path)}\n"


SETTING_FLAGS = {
    "gen": ["--count COUNT", "--height HEIGHT", "--width WIDTH",
            "--annotators ANNOTATORS", "--jitter JITTER"],
    "train": ["--epochs EPOCHS", "--batch-size BATCH_SIZE", "--loss-mode LOSS_MODE",
              "--learning-rate LEARNING_RATE"],
    "infer": ["--scales SCALES"],
    "eval": ["--max-dist-fraction MAX_DIST_FRACTION", "--n-thresholds N_THRESHOLDS"],
    "ablate": ["--epochs EPOCHS"],
}


@pytest.mark.parametrize("command", sorted(SETTING_FLAGS))
def test_help_shows_setting_metavars(capsys, command):
    code, out, _ = invoke(capsys, command, "--help")
    assert code == 0
    for flag in SETTING_FLAGS[command]:
        assert f"  {flag}\n" in out or f"  {flag}  " in out, flag


def test_missing_manifest_exits_4(tmp_path, capsys):
    code, _, err = invoke(capsys, "train", "--manifest", str(tmp_path / "nope.tsv"))
    assert code == 4
    assert err.startswith("crispedge: train:")


def test_usage_errors_exit_2(tmp_path, capsys):
    assert invoke(capsys, "train")[0] == 2          # missing required --manifest
    assert invoke(capsys, "frobnicate")[0] == 2     # unknown subcommand
    assert invoke(capsys)[0] == 2                   # no subcommand


def test_divergent_training_exits_5(tmp_path, capsys):
    manifest, _ = make_dataset(tmp_path)
    code, _, err = invoke(capsys, "train", "--manifest", manifest, "--epochs", "4",
                          "--batch-size", "3", "--loss-mode", "sce",
                          "--learning-rate", "1e12", "--out-dir", str(tmp_path / "t"))
    assert code == 5
    assert err.startswith("crispedge: train:")
    assert "epoch" in err


@pytest.mark.parametrize("mode", ["dice", "ce"])
def test_bad_loss_mode_exits_3(tmp_path, capsys, mode):
    manifest, _ = make_dataset(tmp_path, n=2)
    code, _, err = invoke(capsys, "train", "--manifest", manifest,
                          "--loss-mode", mode, "--epochs", "1",
                          "--out-dir", str(tmp_path / "t"))
    assert code == 3
    assert err.startswith("crispedge: train:")


def exit_case_inputs(tmp_path):
    """Small inputs for the exit-code table: one-image eval manifests with a
    PGM, a finite CRB, a NaN CRB and a one-row CRB prediction, infer's params
    and image, each also with a NaN, a two-sample training set, a manifest
    and a config file that hold a non-ASCII byte, a config file whose
    holdout fraction is out of range, an empty manifest, and a
    CRB whose header dims overflow int64 with no payload, an image of
    1e39, finite in float64 but past float32's range, a three-channel
    image and a two-image batch."""
    rng = np.random.default_rng(4)
    ann = np.zeros((16, 16))
    ann[8, 2:14] = 1.0
    write_annotation(str(tmp_path / "ann.pgm"), ann)
    pred = rng.random((16, 16))
    write_image(str(tmp_path / "pred.pgm"), pred)
    write_crb(str(tmp_path / "pred.crb"), pred)
    pred[3, 5] = np.nan
    write_crb(str(tmp_path / "nan.crb"), pred)
    for name, image in (("pgm", "pred.pgm"), ("crb", "pred.crb"), ("nan", "nan.crb")):
        (tmp_path / f"{name}.tsv").write_text(f"x\t{image}\tann.pgm\ttest\n")
    write_crb(str(tmp_path / "row.crb"), pred[8:9])
    write_annotation(str(tmp_path / "row-ann.pgm"), ann[8:9])
    (tmp_path / "row.tsv").write_text("x\trow.crb\trow-ann.pgm\ttest\n")
    net = build_refine_net(default_topology(), seed=0)
    params = np.concatenate([p.data.ravel() for p in net.params()])
    write_crb(str(tmp_path / "params.crb"), params)
    params[7] = np.nan
    write_crb(str(tmp_path / "nan-params.crb"), params)
    image = rng.random((16, 16))
    write_image(str(tmp_path / "image.pgm"), image)
    image[4, 9] = np.nan
    write_crb(str(tmp_path / "nan-image.crb"), image[None, None])
    write_crb(str(tmp_path / "huge-image.crb"), np.full((1, 1, 16, 16), 1e39))
    write_crb(str(tmp_path / "rgb-image.crb"), np.full((3, 16, 16), 0.5))
    write_crb(str(tmp_path / "two-image.crb"), np.full((2, 1, 16, 16), 0.5))
    (tmp_path / "latin.tsv").write_bytes(b"x\tpr\xe9d.crb\tann.pgm\ttest\n")
    (tmp_path / "latin.cfg").write_bytes(b"# caf\xe9\ngen.count = 2\n")
    (tmp_path / "holdout.cfg").write_text("train.holdout_fraction = 1.5\n")
    save_dataset(gen_synthetic(2, (24, 24), 2, 1.0, seed=1), str(tmp_path / "ds"))
    (tmp_path / "empty.tsv").write_text("")
    (tmp_path / "huge.crb").write_bytes(b"CRB1" + struct.pack("<4I", 3, 2**31, 2**31, 4))
    (tmp_path / "huge.tsv").write_text("x\thuge.crb\tann.pgm\ttest\n")


EXIT_CASES = [
    ("eval-pgm-prediction", "eval --manifest {dir}/pgm.tsv --out-dir {dir}/e", 0),
    ("eval-max-dist-fraction-nan",
     "eval --manifest {dir}/crb.tsv --max-dist-fraction nan --out-dir {dir}/e", 3),
    ("eval-max-dist-fraction-inf",
     "eval --manifest {dir}/crb.tsv --max-dist-fraction inf --out-dir {dir}/e", 3),
    ("eval-max-dist-fraction-overflow",
     "eval --manifest {dir}/crb.tsv --max-dist-fraction 1e308 --out-dir {dir}/e", 3),
    ("eval-nan-prediction", "eval --manifest {dir}/nan.tsv --out-dir {dir}/e", 5),
    ("eval-one-pixel-side-prediction", "eval --manifest {dir}/row.tsv --out-dir {dir}/e", 4),
    ("infer-scales-not-numbers",
     "infer --params {dir}/params.crb --image {dir}/image.pgm --scales abc --out {dir}/p.crb", 3),
    ("infer-scales-nan",
     "infer --params {dir}/params.crb --image {dir}/image.pgm --scales 1,nan --out {dir}/p.crb", 3),
    ("infer-scales-above-cap",
     "infer --params {dir}/params.crb --image {dir}/image.pgm --scales 1e10 --out {dir}/p.crb", 3),
    ("infer-scales-overflow-dimension",
     "infer --params {dir}/params.crb --image {dir}/image.pgm --scales 1e300 --out {dir}/p.crb", 3),
    ("train-learning-rate-nan",
     "train --manifest {dir}/ds/manifest.tsv --epochs 1 --learning-rate nan --out-dir {dir}/t", 3),
    ("train-last-step-overflows",
     "train --manifest {dir}/ds/manifest.tsv --epochs 1 --learning-rate 1e300 --out-dir {dir}/t", 5),
    ("gen-jitter-too-large",
     "gen --count 2 --height 24 --width 24 --jitter 12 --out-dir {dir}/g", 3),
    ("eval-manifest-under-a-file", "eval --manifest {dir}/pred.pgm/x.tsv --out-dir {dir}/e", 4),
    ("gen-out-dir-is-a-file", "gen --count 1 --height 24 --width 24 --out-dir {dir}/pred.pgm", 4),
    ("eval-manifest-not-ascii", "eval --manifest {dir}/latin.tsv --out-dir {dir}/e", 4),
    ("gen-config-not-ascii", "gen --config {dir}/latin.cfg --out-dir {dir}/g", 3),
    ("gen-holdout-fraction-out-of-range",
     "gen --config {dir}/holdout.cfg --count 2 --height 24 --width 24 --out-dir {dir}/g", 3),
    ("infer-nan-params",
     "infer --params {dir}/nan-params.crb --image {dir}/image.pgm --out {dir}/p.crb", 5),
    ("infer-nan-image",
     "infer --params {dir}/params.crb --image {dir}/nan-image.crb --out {dir}/p.crb", 5),
    ("infer-image-beyond-float32",
     "infer --params {dir}/params.crb --image {dir}/huge-image.crb --out {dir}/p.crb", 5),
    ("infer-three-channel-image",
     "infer --params {dir}/params.crb --image {dir}/rgb-image.crb --out {dir}/p.crb", 4),
    ("infer-two-image-batch",
     "infer --params {dir}/params.crb --image {dir}/two-image.crb --out {dir}/p.crb", 4),
    ("gen-negative-seed", "gen --count 1 --height 24 --width 24 --seed -1 --out-dir {dir}/g", 3),
    ("gradcheck-negative-seed", "gradcheck --seed -1", 3),
    ("eval-empty-manifest", "eval --manifest {dir}/empty.tsv --out-dir {dir}/e", 4),
    ("train-empty-manifest", "train --manifest {dir}/empty.tsv --epochs 1 --out-dir {dir}/t", 4),
    ("ablate-empty-manifest", "ablate --manifest {dir}/empty.tsv --epochs 1 --out-dir {dir}/a", 4),
    ("eval-crb-dims-overflow", "eval --manifest {dir}/huge.tsv --out-dir {dir}/e", 4),
    ("infer-crb-dims-overflow",
     "infer --params {dir}/params.crb --image {dir}/huge.crb --out {dir}/p.crb", 4),
]


@pytest.mark.parametrize("argv,want", [case[1:] for case in EXIT_CASES],
                         ids=[case[0] for case in EXIT_CASES])
def test_exit_code_table(tmp_path, capsys, argv, want):
    exit_case_inputs(tmp_path)
    args = argv.format(dir=tmp_path).split()
    code, _, err = invoke(capsys, *args)
    assert code == want, err
    if want:
        assert err.startswith(f"crispedge: {args[0]}:")
        assert err.count("\n") == 1
        assert not (tmp_path / "p.crb").exists()
    else:
        assert (tmp_path / "e" / "scores.txt").exists()


@pytest.mark.parametrize("image", ["nan-image.crb", "huge-image.crb"])
def test_infer_names_a_bad_image(tmp_path, capsys, image):
    # predict's float32 forward rejects the image itself, before any numpy
    # warning, instead of blaming the probability map it would produce
    exit_case_inputs(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = invoke(capsys, "infer", "--params", str(tmp_path / "params.crb"),
                              "--image", str(tmp_path / image), "--out", str(tmp_path / "p.crb"))
    assert code == 5
    assert "input image" in err and "3.4028235e+38" in err


# ---------------------------------------------------------------------------
# gradcheck / ablate


def test_gradcheck_deterministic_and_passing(capsys):
    c1, o1, _ = invoke(capsys, "gradcheck", "--seed", "7")
    c2, o2, _ = invoke(capsys, "gradcheck", "--seed", "7")
    assert c1 == c2 == 0
    assert o1 == o2
    lines = o1.strip().split("\n")
    assert any(l.startswith("conv2d ") for l in lines)
    assert lines[-1].startswith("worst ")


def test_gradcheck_fails_on_nan_gradient(capsys, monkeypatch):
    plain_exp = tc.exp

    def nan_grad_exp(x):
        return tc.Tensor(plain_exp(x).data, (x,), lambda g: tc._accumulate(x, g * np.nan))

    monkeypatch.setattr(tc, "exp", nan_grad_exp)
    code, out, err = invoke(capsys, "gradcheck", "--seed", "0")
    assert code == 5
    assert "\nexp nan\n" in out
    assert out.endswith("\nworst nan\n")
    assert err == "crispedge: gradcheck: max relative error nan exceeds 0.0001\n"


def test_ablate_writes_mode_rows(tmp_path, capsys):
    manifest, _ = make_dataset(tmp_path)
    out = str(tmp_path / "ab")
    code, _, err = invoke(capsys, "ablate", "--manifest", manifest,
                          "--modes", "sce,sd", "--epochs", "1",
                          "--seed", "1", "--out-dir", out)
    assert code == 0, err
    csv = Path(out, "ablation.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "mode,ods_c,ods_l,ods_t"
    assert lines[1].startswith("sce,")
    assert lines[2].startswith("sd,")
