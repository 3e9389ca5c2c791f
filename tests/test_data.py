import hashlib
import os
import struct

import numpy as np
import pytest
from scipy.spatial import cKDTree

import crispedge.data as data_module
from crispedge.data import (
    DatasetManifest,
    ManifestEntry,
    Sample,
    gen_synthetic,
    load_dataset,
    load_manifest,
    read_annotation,
    read_crb,
    read_pgm,
    read_raster,
    save_dataset,
    write_annotation,
    write_crb,
    write_image,
    write_pgm,
    write_raster,
)
from crispedge.errors import ContractError, ParseError, ShapeError, ValidationError
from crispedge.evalbench import eval_criteria, match_boundaries
from crispedge.losses import AnnotationSet, batch_weight_maps
from crispedge.tensorcore import Tensor


def no_two_by_two(mask):
    m = mask > 0
    return not (m[:-1, :-1] & m[1:, :-1] & m[:-1, 1:] & m[1:, 1:]).any()


# ---------------------------------------------------------------------------
# generator


def test_gen_deterministic():
    a = gen_synthetic(3, (48, 48), 2, 1.5, seed=3)
    b = gen_synthetic(3, (48, 48), 2, 1.5, seed=3)
    for s, t in zip(a, b):
        assert s.id == t.id
        assert np.array_equal(s.image.data, t.image.data)
        assert np.array_equal(s.annotations.maps, t.annotations.maps)
        assert np.array_equal(s.true_boundary, t.true_boundary)
    c = gen_synthetic(3, (48, 48), 2, 1.5, seed=4)
    assert not all(np.array_equal(s.image.data, t.image.data) for s, t in zip(a, c))


def test_gen_bytes_are_pinned():
    # the benchmark's workloads are made by these calls (the last a crowded
    # 24x24 one), so a changed byte would change what they measure
    digest = hashlib.sha256()
    for args in ((30, (64, 64), 3, 1.0, 1), (72, (64, 64), 3, 1.0, 1),
                 (2, (321, 481), 3, 1.0, 0), (10, (24, 24), 3, 1.0, 4)):
        for s in gen_synthetic(*args):
            digest.update(s.image.data.tobytes())
            digest.update(s.annotations.maps.tobytes())
            digest.update(s.true_boundary.tobytes())
    assert digest.hexdigest() == ("a351865092453a1a4a1d39a01d8387e1"
                                  "b1a78a596cc4849aaa46ed6e729492a1")


def test_gen_builds_only_placed_shapes(monkeypatch):
    built = []
    for name in ("_disk_fill", "_polygon_fill"):
        fill = getattr(data_module, name)
        monkeypatch.setattr(data_module, name,
                            lambda *a, _fill=fill: built.append(1) or _fill(*a))
    count = 10
    gen_synthetic(count, (24, 24), 3, 1.0, seed=4)
    # at most four shapes are placed per sample, however many boxes clash
    assert 0 < len(built) <= 4 * count


def test_gen_jitter_zero_identical_annotators_binary_weights():
    for s in gen_synthetic(3, (48, 48), 3, 0.0, seed=11):
        m = s.annotations.maps
        assert np.array_equal(m[0], m[1])
        assert np.array_equal(m[1], m[2])
        assert np.array_equal(m[0], s.true_boundary)
        w = batch_weight_maps([s.annotations])
        assert set(np.unique(w.w)) <= {0.0, 1.0}


def test_gen_soundness_true_outline_scores_perfectly():
    samples = gen_synthetic(4, (64, 64), 3, 0.0, seed=7)
    report = eval_criteria([s.true_boundary for s in samples],
                           [s.annotations for s in samples], 0.0075)
    for res in report.results():
        assert res.scores.ods == 1.0
        assert res.scores.ois == 1.0
        assert res.scores.ap == 1.0


def test_gen_jitter_bound_holds_at_tolerance_three():
    # displacement <= 2 px plus rasterization slack keeps every annotator
    # pixel within 3 px of the true outline and vice versa
    for seed in range(5):
        for s in gen_synthetic(3, (64, 64), 3, 2.0, seed=seed):
            true_pts = np.argwhere(s.true_boundary > 0)
            ttree = cKDTree(true_pts)
            for m in s.annotations.maps:
                ann_pts = np.argwhere(m > 0)
                d_at, _ = ttree.query(ann_pts)
                d_ta, _ = cKDTree(ann_pts).query(true_pts)
                assert d_at.max() <= 3.0
                assert d_ta.max() <= 3.0
                md, _ = match_boundaries(m > 0, s.true_boundary > 0, 3.0)
                smaller = min(len(ann_pts), len(true_pts))
                assert md >= 0.9 * smaller


def test_gen_annotations_unit_width():
    for s in gen_synthetic(3, (48, 48), 2, 1.0, seed=2):
        for m in s.annotations.maps:
            assert no_two_by_two(m)
        assert no_two_by_two(s.true_boundary)


def test_gen_image_range_and_shape():
    s = gen_synthetic(1, (32, 40), 1, 0.5, seed=0)[0]
    assert s.image.data.shape == (1, 1, 32, 40)
    assert s.image.data.min() >= 0.0
    assert s.image.data.max() <= 1.0


def test_gen_validation():
    with pytest.raises(ContractError):
        gen_synthetic(1, (16, 64), 1, 0.0, seed=0)
    with pytest.raises(ContractError):
        gen_synthetic(1, (64, 64), 0, 0.0, seed=0)
    with pytest.raises(ContractError):
        gen_synthetic(1, (64, 64), 1, -0.5, seed=0)
    with pytest.raises(ContractError):
        gen_synthetic(-1, (64, 64), 1, 0.0, seed=0)


def test_sample_validation():
    img = Tensor(np.zeros((1, 1, 8, 8)))
    with pytest.raises(ShapeError):
        Sample("x", img, AnnotationSet([np.zeros((9, 8))]))
    for channels in (2, 3):
        with pytest.raises(ShapeError, match=r"\(1, 1, h, w\)"):
            Sample("x", Tensor(np.zeros((1, channels, 8, 8))), AnnotationSet([np.zeros((8, 8))]))


# ---------------------------------------------------------------------------
# PGM


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.integers(0, 256, size=(11, 7)).astype(np.uint8)
    p = str(tmp_path / "x.pgm")
    write_pgm(p, arr)
    assert np.array_equal(read_pgm(p), arr)


def test_annotation_roundtrip(tmp_path):
    m = np.zeros((9, 9))
    m[4, 1:8] = 1.0
    p = str(tmp_path / "ann.pgm")
    write_annotation(p, m)
    assert np.array_equal(read_annotation(p), m)


def test_annotation_rejects_gray_value(tmp_path):
    arr = np.zeros((4, 4), dtype=np.uint8)
    arr[1, 2] = 128
    p = str(tmp_path / "bad.pgm")
    write_pgm(p, arr)
    with pytest.raises(ValidationError, match="128"):
        read_annotation(p)


def test_write_annotation_rejects_nonbinary(tmp_path):
    with pytest.raises(ValidationError):
        write_annotation(str(tmp_path / "x.pgm"), np.full((3, 3), 0.5))


def test_pgm_bad_magic(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ParseError, match="byte 0"):
        read_pgm(str(p))


def test_pgm_truncated_names_byte_counts(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(ParseError, match="expected 16 bytes, 7 available"):
        read_pgm(str(p))


def test_pgm_comments_skipped(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n3 2\n255\n" + bytes(range(6)))
    arr = read_pgm(str(p))
    assert arr.shape == (2, 3)
    assert arr[1, 2] == 5


def test_image_roundtrip_quantized(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.random((8, 8))
    p = str(tmp_path / "img.pgm")
    write_image(p, img)
    back = read_pgm(p).astype(float) / 255.0
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12


# ---------------------------------------------------------------------------
# CRB1 container


def test_crb_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    for shape in [(5, 7), (13,), (2, 3, 4)]:
        arr = rng.standard_normal(shape)
        p = str(tmp_path / "a.crb")
        write_crb(p, arr)
        back = read_crb(p)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)
        assert back.tobytes() == arr.tobytes()


def test_crb_truncated_names_byte_counts(tmp_path):
    p = str(tmp_path / "t.crb")
    write_crb(p, np.ones((3, 3)))
    raw = (tmp_path / "t.crb").read_bytes()
    short = tmp_path / "short.crb"
    short.write_bytes(raw[:-10])
    with pytest.raises(ParseError, match="expected 72 bytes, 62 available"):
        read_crb(str(short))


def test_crb_bad_magic(tmp_path):
    p = tmp_path / "bad.crb"
    p.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ParseError, match="byte 0"):
        read_crb(str(p))


def test_crb_trailing_data_rejected(tmp_path):
    p = str(tmp_path / "x.crb")
    write_crb(p, np.ones(2))
    with open(p, "ab") as fh:
        fh.write(b"\x00" * 4)
    with pytest.raises(ParseError, match="trailing"):
        read_crb(p)


def test_crb_implausible_ndim(tmp_path):
    p = tmp_path / "n.crb"
    p.write_bytes(b"CRB1" + (0).to_bytes(4, "little"))
    with pytest.raises(ParseError, match="ndim"):
        read_crb(str(p))


def test_crb_dims_past_int64_name_the_missing_payload(tmp_path):
    # 8 * 2**31 * 2**31 * 4 bytes wraps to 0 in int64, which matched the
    # empty payload and left the failure to reshape
    p = tmp_path / "huge.crb"
    p.write_bytes(b"CRB1" + struct.pack("<4I", 3, 2**31, 2**31, 4))
    with pytest.raises(ParseError, match=f"expected {2**67} bytes, 0 available"):
        read_crb(str(p))


def test_raster_dispatch(tmp_path):
    t = Tensor(np.random.default_rng(3).random((6, 6)))
    pgm = str(tmp_path / "r.pgm")
    crb = str(tmp_path / "r.crb")
    write_raster(t, pgm)
    write_raster(t, crb)
    assert np.array_equal(read_raster(crb).data, t.data)
    assert read_raster(pgm).data.shape == (1, 1, 6, 6)
    with pytest.raises(ValidationError):
        write_raster(t, str(tmp_path / "r.png"))
    with pytest.raises(ValidationError):
        read_raster(str(tmp_path / "r.png"))
    batch = str(tmp_path / "batch.crb")
    write_crb(batch, np.zeros((2, 1, 6, 6)))
    with pytest.raises(ValidationError, match=f"{batch}: .* batch of 2"):
        read_raster(batch)


# ---------------------------------------------------------------------------
# manifests and dataset round trip


def test_dataset_roundtrip(tmp_path):
    samples = gen_synthetic(3, (32, 32), 2, 1.0, seed=9)
    out = str(tmp_path / "ds")
    manifest_path = save_dataset(samples, out, splits={samples[1].id: "test"})
    loaded = load_dataset(manifest_path)
    assert [s.id for s in loaded] == [s.id for s in samples]
    for orig, back in zip(samples, loaded):
        assert np.array_equal(back.annotations.maps, orig.annotations.maps)
        assert np.max(np.abs(back.image.data - orig.image.data)) <= 0.5 / 255 + 1e-12
    manifest = load_manifest(manifest_path)
    assert manifest.entries[1].split == "test"
    assert manifest.entries[0].split == "train"


def test_manifest_missing_file(tmp_path):
    mp = tmp_path / "m.tsv"
    mp.write_text("a\tnope.pgm\tnope-ann.pgm\ttrain\n")
    with pytest.raises(ValidationError, match="missing file"):
        load_manifest(str(mp))


def test_manifest_malformed_line(tmp_path):
    mp = tmp_path / "m.tsv"
    mp.write_text("a\tonly-two-fields\n")
    with pytest.raises(ParseError, match=":1:"):
        load_manifest(str(mp))


def test_manifest_without_entries_is_rejected(tmp_path):
    mp = tmp_path / "m.tsv"
    mp.write_text("\n\n")
    with pytest.raises(ValidationError, match="empty manifest"):
        load_manifest(str(mp))


def test_manifest_requires_annotations():
    with pytest.raises(ValidationError):
        DatasetManifest([ManifestEntry("a", "img.pgm", (), "train")])


def test_manifest_relative_paths_resolve_from_manifest_dir(tmp_path):
    samples = gen_synthetic(1, (32, 32), 1, 0.0, seed=12)
    sub = str(tmp_path / "nested" / "ds")
    manifest_path = save_dataset(samples, sub)
    cwd = os.getcwd()
    os.chdir(str(tmp_path))
    try:
        loaded = load_dataset(manifest_path)
    finally:
        os.chdir(cwd)
    assert loaded[0].id == samples[0].id
