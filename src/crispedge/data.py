"""Synthetic multi-annotator boundary datasets and raster I/O.

The generator draws filled shapes with known outlines, so ground truth is
exact by construction. Annotator disagreement is modeled as a smooth
displacement of the outline along its normal, bounded by ``jitter_px``.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import ContractError, ParseError, ShapeError, ValidationError
from .evalbench import thin_binary
from .losses import AnnotationSet
from .tensorcore import Tensor

_ARC_STEP = 0.3  # outline sampling step in pixels; dense enough to leave no holes


@dataclass
class Sample:
    id: str
    image: Tensor
    annotations: AnnotationSet
    # unperturbed boundary when the sample came from the generator; kept out
    # of the annotation set so consensus weights reflect annotators only
    true_boundary: np.ndarray | None = None

    def __post_init__(self):
        shape = self.image.data.shape
        if shape[:2] != (1, 1):
            raise ShapeError(f"sample image must be (1, 1, h, w), got {shape}")
        if shape[2:] != self.annotations.spatial_shape:
            raise ShapeError(
                f"image spatial dims {shape[2:]} do not match "
                f"annotations {self.annotations.spatial_shape}")


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    image_path: str
    ann_paths: tuple
    split: str


@dataclass
class DatasetManifest:
    entries: list = field(default_factory=list)

    def __post_init__(self):
        for e in self.entries:
            if len(e.ann_paths) < 1:
                raise ValidationError(f"manifest entry '{e.id}' lists no annotations")


# ---------------------------------------------------------------------------
# shape outlines


def _disk_outline(center, radius):
    n = max(int(np.ceil(2 * np.pi * radius / _ARC_STEP)), 16)
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    pts = np.stack([center[0] + radius * np.sin(theta),
                    center[1] + radius * np.cos(theta)], axis=1)
    normals = np.stack([np.sin(theta), np.cos(theta)], axis=1)
    return pts, normals


def _polygon_outline(vertices):
    verts = np.asarray(vertices, dtype=float)
    pts_parts, nrm_parts = [], []
    k = len(verts)
    for i in range(k):
        a, b = verts[i], verts[(i + 1) % k]
        seg = b - a
        length = float(np.hypot(*seg))
        n = max(int(np.ceil(length / _ARC_STEP)), 2)
        t = np.linspace(0.0, 1.0, n, endpoint=False)[:, None]
        pts_parts.append(a + t * seg)
        normal = np.array([seg[1], -seg[0]]) / length
        nrm_parts.append(np.tile(normal, (n, 1)))
    return np.concatenate(pts_parts), np.concatenate(nrm_parts)


def _disk_fill(window, center, radius):
    yy, xx = np.mgrid[window]
    return np.hypot(yy - center[0], xx - center[1]) <= radius


def _polygon_fill(window, vertices):
    # even winding via half-plane signs; vertices are convex and CCW-or-CW
    yy, xx = np.mgrid[window]
    verts = np.asarray(vertices, dtype=float)
    k = len(verts)
    signs = []
    for i in range(k):
        a, b = verts[i], verts[(i + 1) % k]
        cross = (b[0] - a[0]) * (xx - a[1]) - (b[1] - a[1]) * (yy - a[0])
        signs.append(cross)
    stacked = np.stack(signs)
    return np.all(stacked >= 0, axis=0) | np.all(stacked <= 0, axis=0)


def _rasterize(points, size):
    canvas = np.zeros(size, dtype=bool)
    ints = np.round(points).astype(int)
    keep = ((ints[:, 0] >= 0) & (ints[:, 0] < size[0])
            & (ints[:, 1] >= 0) & (ints[:, 1] < size[1]))
    ints = ints[keep]
    canvas[ints[:, 0], ints[:, 1]] = True
    return canvas


def _sample_shape(rng, size, margin):
    """Draw one shape as (kind, geometry, box): a disk's (centre, radius) or a
    polygon's vertices, and the bounding box. Nothing is built until the box
    is accepted."""
    h, w = size
    lim = min(h, w)
    kind = ["disk", "rect", "triangle"][int(rng.integers(0, 3))]
    if kind == "disk":
        r = float(rng.uniform(5.0, max(lim / 4.0, 5.5)))
        cy = float(rng.uniform(margin + r, h - 1 - margin - r))
        cx = float(rng.uniform(margin + r, w - 1 - margin - r))
        return "disk", ((cy, cx), r), (cy - r, cy + r, cx - r, cx + r)
    if kind == "rect":
        ry = float(rng.uniform(4.0, max(lim / 4.0, 4.5)))
        rx = float(rng.uniform(4.0, max(lim / 4.0, 4.5)))
        cy = float(rng.uniform(margin + ry, h - 1 - margin - ry))
        cx = float(rng.uniform(margin + rx, w - 1 - margin - rx))
        verts = [(cy - ry, cx - rx), (cy - ry, cx + rx), (cy + ry, cx + rx), (cy + ry, cx - rx)]
        return "polygon", verts, (cy - ry, cy + ry, cx - rx, cx + rx)
    r = float(rng.uniform(6.0, max(lim / 4.0, 6.5)))
    cy = float(rng.uniform(margin + r, h - 1 - margin - r))
    cx = float(rng.uniform(margin + r, w - 1 - margin - r))
    while True:
        ang = np.sort(rng.uniform(0, 2 * np.pi, size=3))
        verts = [(cy + r * np.sin(a), cx + r * np.cos(a)) for a in ang]
        area = abs((verts[1][0] - verts[0][0]) * (verts[2][1] - verts[0][1])
                   - (verts[2][0] - verts[0][0]) * (verts[1][1] - verts[0][1])) / 2
        if area >= 0.35 * r * r:
            return "polygon", verts, (cy - r, cy + r, cx - r, cx + r)


def _build_shape(kind, geometry, box, size):
    """Outline points, their normals, the box's pixel window and the fill
    over that window, for a shape from ``_sample_shape``. The window holds
    every pixel inside the box, so the fill misses none of the shape."""
    y0, y1, x0, x1 = box
    window = (slice(max(math.floor(y0), 0), min(math.ceil(y1) + 1, size[0])),
              slice(max(math.floor(x0), 0), min(math.ceil(x1) + 1, size[1])))
    if kind == "disk":
        center, radius = geometry
        pts, normals = _disk_outline(center, radius)
        return pts, normals, window, _disk_fill(window, center, radius)
    pts, normals = _polygon_outline(geometry)
    return pts, normals, window, _polygon_fill(window, geometry)


def _boxes_clash(box, others, gap):
    y0, y1, x0, x1 = box
    for oy0, oy1, ox0, ox1 in others:
        if y0 - gap < oy1 and oy0 < y1 + gap and x0 - gap < ox1 and ox0 < x1 + gap:
            return True
    return False


def _smooth_displacement(rng, n, jitter_px):
    s = np.arange(n) / n
    d = np.zeros(n)
    for k in (1, 2, 3):
        d += rng.uniform(0.25, 1.0) * np.sin(2 * np.pi * k * s + rng.uniform(0, 2 * np.pi))
    amp = jitter_px * rng.uniform(0.45, 0.85)
    peak = np.max(np.abs(d))
    if peak > 0:
        d *= amp / peak
    else:
        d[:] = 0.0
    return d


def gen_synthetic(count, size, annotators, jitter_px, seed):
    """Deterministic synthetic dataset: shapes on a smooth background.

    Each annotator sees the true outline displaced along its normal by a
    smooth field bounded by jitter_px, re-rasterized at unit width.
    """
    h, w = int(size[0]), int(size[1])
    if min(h, w) < 24:
        raise ContractError(f"image size must be at least 24x24, got {size}")
    if annotators < 1:
        raise ContractError(f"annotators must be >= 1, got {annotators}")
    if not 0 <= jitter_px < np.inf:
        raise ContractError(f"jitter_px must be finite and >= 0, got {jitter_px}")
    if count < 0:
        raise ContractError(f"count must be >= 0, got {count}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")

    margin = 4.0 + float(np.ceil(jitter_px))
    # _sample_shape keeps a shape's centre margin + radius from every edge, with
    # radii up to max(short side / 4, 6.5)
    if min(h, w) - 1 - 2 * margin - 2 * max(min(h, w) / 4.0, 6.5) < 0:
        raise ContractError(f"jitter_px {jitter_px} leaves no room to place shapes "
                            f"in a {h}x{w} image")
    samples = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        n_shapes = int(rng.integers(1, 5))
        shapes, boxes = [], []
        for _ in range(n_shapes):
            for _attempt in range(40):
                kind, geometry, box = _sample_shape(rng, (h, w), margin)
                if not _boxes_clash(box, boxes, gap=3.0):
                    shapes.append(_build_shape(kind, geometry, box, (h, w)))
                    boxes.append(box)
                    break

        true_canvas = np.zeros((h, w), dtype=bool)
        for pts, *_ in shapes:
            true_canvas |= _rasterize(pts, (h, w))
        true_map = thin_binary(true_canvas)

        ann_maps = []
        for _a in range(annotators):
            canvas = np.zeros((h, w), dtype=bool)
            for pts, normals, *_ in shapes:
                d = _smooth_displacement(rng, len(pts), jitter_px)
                canvas |= _rasterize(pts + d[:, None] * normals, (h, w))
            ann_maps.append(thin_binary(canvas).astype(float))

        background = gaussian_filter(rng.random((h, w)), sigma=max(h, w) / 10.0)
        lo, hi = background.min(), background.max()
        img = 0.35 + 0.25 * (background - lo) / max(hi - lo, 1e-12)
        for *_, window, fill in shapes:
            if rng.random() < 0.5:
                tone = float(rng.uniform(0.02, 0.20))
            else:
                tone = float(rng.uniform(0.78, 0.98))
            img[window][fill] = tone
        img = gaussian_filter(img, sigma=0.6)
        img = np.clip(img + rng.normal(0.0, 0.02, (h, w)), 0.0, 1.0)

        samples.append(Sample(
            id=f"syn-{seed}-{i:04d}",
            image=Tensor(img[None, None]),
            annotations=AnnotationSet(ann_maps),
            true_boundary=true_map.astype(float),
        ))
    return samples


# ---------------------------------------------------------------------------
# PGM (P5) raster I/O


def _pgm_tokens(raw, path):
    """Yield (token, offset) triples for the three header ints after the magic."""
    pos = 2  # caller verified the magic
    tokens = []
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace() and raw[pos:pos + 1] != b"#":
            pos += 1
        tok = raw[start:pos]
        if not tok:
            raise ParseError(f"{path}: truncated header at byte {start}")
        if not tok.isdigit():
            raise ParseError(f"{path}: expected integer at byte {start}, got {tok!r}")
        tokens.append((int(tok), start))
    if pos >= len(raw):
        raise ParseError(f"{path}: missing pixel data at byte {pos}")
    pos += 1  # single whitespace byte separates maxval from pixels
    return tokens, pos


def read_pgm(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] != b"P5":
        raise ParseError(f"{path}: bad magic at byte 0, expected b'P5'")
    tokens, pos = _pgm_tokens(raw, path)
    (width, _), (height, _), (maxval, off) = tokens
    if width < 1 or height < 1:
        raise ParseError(f"{path}: degenerate dimensions {width}x{height}")
    if maxval != 255:
        raise ParseError(f"{path}: unsupported maxval {maxval} at byte {off}, need 255")
    need = width * height
    have = len(raw) - pos
    if have < need:
        raise ParseError(f"{path}: truncated pixels at byte {pos}: "
                         f"expected {need} bytes, {have} available")
    return np.frombuffer(raw[pos:pos + need], dtype=np.uint8).reshape(height, width).copy()


def write_pgm(path, array):
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise ShapeError(f"PGM wants a 2-D array, got shape {arr.shape}")
    data = arr.astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_annotation(path):
    arr = read_pgm(path)
    bad = ~np.isin(arr, (0, 255))
    if bad.any():
        y, x = np.argwhere(bad)[0]
        raise ValidationError(
            f"{path}: annotation value {arr[y, x]} at ({y}, {x}) is not in {{0, 255}}")
    return (arr == 255).astype(float)


def write_annotation(path, boundary_map):
    arr = np.asarray(boundary_map, dtype=float)
    if not np.isin(arr, (0.0, 1.0)).all():
        raise ValidationError("annotation map must be binary over {0, 1}")
    write_pgm(path, (arr * 255).astype(np.uint8))


def read_image(path):
    return read_pgm(path).astype(float) / 255.0


def write_image(path, gray_map):
    arr = np.clip(np.asarray(gray_map, dtype=float), 0.0, 1.0)
    write_pgm(path, np.round(arr * 255).astype(np.uint8))


# ---------------------------------------------------------------------------
# CRB1 container: magic, u32 ndim, u32 dims, float64 little-endian row-major


def write_crb(path, array):
    arr = np.ascontiguousarray(array, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(b"CRB1")
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes(order="C"))


def read_crb(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4 or raw[:4] != b"CRB1":
        raise ParseError(f"{path}: bad magic at byte 0, expected b'CRB1'")
    if len(raw) < 8:
        raise ParseError(f"{path}: truncated header at byte 4: "
                         f"expected 4 bytes for ndim, {len(raw) - 4} available")
    ndim = struct.unpack("<I", raw[4:8])[0]
    if ndim == 0 or ndim > 8:
        raise ParseError(f"{path}: implausible ndim {ndim} at byte 4")
    dims_end = 8 + 4 * ndim
    if len(raw) < dims_end:
        raise ParseError(f"{path}: truncated dims at byte 8: "
                         f"expected {4 * ndim} bytes, {len(raw) - 8} available")
    dims = struct.unpack(f"<{ndim}I", raw[8:dims_end])
    need = 8 * math.prod(dims)
    have = len(raw) - dims_end
    if have < need:
        raise ParseError(f"{path}: truncated payload at byte {dims_end}: "
                         f"expected {need} bytes, {have} available")
    if have > need:
        raise ParseError(f"{path}: trailing data at byte {dims_end + need}: "
                         f"expected {need} payload bytes, {have} available")
    return np.frombuffer(raw[dims_end:dims_end + need], dtype="<f8").reshape(dims).copy()


def write_raster(tensor, path):
    if path.endswith(".pgm"):
        write_image(path, tensor.data[0, 0])
    elif path.endswith(".crb"):
        write_crb(path, tensor.data[0, 0])
    else:
        raise ValidationError(f"unsupported raster extension on '{path}' (want .pgm or .crb)")


def read_raster(path):
    """One image as a (1, channels, height, width) tensor."""
    if path.endswith(".pgm"):
        return Tensor(read_image(path))
    if not path.endswith(".crb"):
        raise ValidationError(f"unsupported raster extension on '{path}' (want .pgm or .crb)")
    tensor = Tensor(read_crb(path))
    if tensor.shape[0] != 1:
        raise ValidationError(f"{path}: a raster holds one image, got a batch of {tensor.shape[0]}")
    return tensor


# ---------------------------------------------------------------------------
# manifests


def save_manifest(manifest, path):
    with open(path, "w", encoding="ascii") as fh:
        for e in manifest.entries:
            fh.write(f"{e.id}\t{e.image_path}\t{','.join(e.ann_paths)}\t{e.split}\n")


def read_ascii_lines(path):
    """The lines of an ASCII text file; any other byte is a ParseError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not an ASCII text file") from exc


def load_manifest(path):
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    for lineno, line in enumerate(read_ascii_lines(path), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"{path}:{lineno}: expected 4 tab-separated fields, "
                             f"got {len(parts)}")
        sid, image_path, ann_field, split = parts
        ann_paths = tuple(p for p in ann_field.split(",") if p)
        resolved_img = os.path.join(base, image_path)
        resolved_anns = tuple(os.path.join(base, p) for p in ann_paths)
        for p in (resolved_img, *resolved_anns):
            if not os.path.exists(p):
                raise ValidationError(f"{path}:{lineno}: missing file '{p}'")
        entries.append(ManifestEntry(sid, resolved_img, resolved_anns, split))
    if not entries:
        raise ValidationError(f"{path}: empty manifest")
    return DatasetManifest(entries)


def save_dataset(samples, out_dir, splits=None):
    """Write images, annotations, and a manifest; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for s in samples:
        img_name = f"{s.id}.pgm"
        write_image(os.path.join(out_dir, img_name), s.image.data[0, 0])
        ann_names = []
        for j in range(s.annotations.n):
            name = f"{s.id}-ann{j}.pgm"
            write_annotation(os.path.join(out_dir, name), s.annotations.maps[j])
            ann_names.append(name)
        split = splits.get(s.id, "train") if splits else "train"
        entries.append(ManifestEntry(s.id, img_name, tuple(ann_names), split))
    manifest_path = os.path.join(out_dir, "manifest.tsv")
    save_manifest(DatasetManifest(entries), manifest_path)
    return manifest_path


def load_dataset(manifest_path):
    manifest = load_manifest(manifest_path)
    samples = []
    for e in manifest.entries:
        img = read_image(e.image_path)
        maps = [read_annotation(p) for p in e.ann_paths]
        samples.append(Sample(id=e.id, image=Tensor(img[None, None]),
                              annotations=AnnotationSet(maps)))
    return samples
