"""Dataset ingestion and synthesis.

CSV loading with contiguous relabeling, a minimal grayscale raster reader
(PGM, binary or ASCII) with bilinear resize to fixed-size vectors, synthetic
Gaussian class generators, and the repeated random train/test split protocol.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import InvalidInputError
from .pipeline import Dataset

RASTER_SIZE = (32, 32)
_LABEL_MAX = int(np.iinfo(np.int64).max)  # labels are parsed as int64


@dataclass(frozen=True)
class SplitSpec:
    """Repeated-split protocol: per_class_train samples to train, rest to test."""

    per_class_train: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.per_class_train < 1:
            raise InvalidInputError("per_class_train must be at least 1")


@dataclass(frozen=True)
class SynthSpec:
    """Isotropic Gaussian classes with means separation * direction_k."""

    class_count: int
    dim: int
    per_class: int
    separation: float
    sigma: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.class_count < 1:
            raise InvalidInputError("class_count must be at least 1")
        if self.dim < 1:
            raise InvalidInputError("dim must be at least 1")
        if self.per_class < 1:
            raise InvalidInputError("per_class must be at least 1")
        if not (np.isfinite(self.separation) and self.separation >= 0):
            raise InvalidInputError("separation must be nonnegative and finite")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidInputError("sigma must be positive and finite")


def load_csv(path) -> tuple[Dataset, dict[int, int]]:
    """Read rows of ``label,v1,...,vm``; the first line is data, not a header.

    A leading byte-order mark, blank lines and whitespace around a cell are
    skipped. Labels are positive integers, relabeled to contiguous 1..C in
    sorted order of the original values, so labels that already are 1..C
    keep their values. The original -> new map is returned alongside the dataset.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: not UTF-8 text") from None
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    width = rows[0].count(",") + 1
    if width < 2:
        _raise_first_bad_row(path, lines, "need a label and a value")
    try:
        # numpy releases that still read an i8 cell such as 1.5 through
        # float warn with a DeprecationWarning; as an error it refuses 1.5.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(
                rows,
                dtype=[("label", "i8"), ("x", "f8", (width - 1,))],
                delimiter=",",
                comments=None,
                ndmin=1,
            )
    except (ValueError, DeprecationWarning) as exc:
        _raise_first_bad_row(path, lines, str(exc))
    if table["label"].min() < 1:
        _raise_first_bad_row(path, lines, "label must be positive")

    originals, labels = np.unique(table["label"], return_inverse=True)
    relabel = {lab: new for new, lab in enumerate(originals.tolist(), start=1)}
    return Dataset(table["x"], labels + 1), relabel


def _numpy_reads(cell: str, parse) -> bool:
    """Whether np.loadtxt reads ``cell`` as ``parse`` (int or float) does.

    numpy's text parser takes what Python's int() and float() take, less
    underscores between digits and non-ASCII digits.
    """
    try:
        parse(cell)
    except ValueError:
        return False
    return "_" not in cell and cell.strip().isascii()


def _raise_first_bad_row(path, lines: list[str], reason: str) -> NoReturn:
    """Raise the InvalidInputError that names the first malformed data line.

    Only load_csv's error path calls this. ``reason`` is the error raised
    when no line breaks a rule checked here.
    """
    width = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
            if width < 2:
                raise InvalidInputError(
                    f"{path}: row {lineno}: need a label and at least one value"
                )
        elif len(cells) != width:
            raise InvalidInputError(
                f"{path}: row {lineno}: expected {width} cells, got {len(cells)}"
            )
        if not _numpy_reads(cells[0], int):
            raise InvalidInputError(
                f"{path}: row {lineno}: label {cells[0]!r} is not an integer"
            )
        label = int(cells[0])
        if label < 1:
            raise InvalidInputError(
                f"{path}: row {lineno}: label must be positive, got {label}"
            )
        if label > _LABEL_MAX:
            raise InvalidInputError(
                f"{path}: row {lineno}: label {label} does not fit in 64 bits"
            )
        if not all(_numpy_reads(cell, float) for cell in cells[1:]):
            raise InvalidInputError(f"{path}: row {lineno}: non-numeric value")
    raise InvalidInputError(f"{path}: {reason}")


def save_csv(ds: Dataset, path) -> None:
    """Write ``label,v1,...,vm`` rows; a rerun produces identical bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(ds.n):
            values = ",".join(repr(float(v)) for v in ds.samples[i])
            fh.write(f"{int(ds.labels[i])},{values}\n")


def write_sidecar(csv_path, entries: dict) -> Path:
    """Write dataset metadata next to a CSV as simple ``key: value`` lines."""
    sidecar = Path(str(csv_path) + ".meta")
    with open(sidecar, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            fh.write(f"{key}: {value}\n")
    return sidecar


def _read_pgm(path) -> np.ndarray:
    """Decode an 8-bit PGM (P5 binary or P2 ASCII) into a float array."""
    blob = Path(path).read_bytes()

    # Header tokens are whitespace-separated with '#' comments to end of line.
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4 and pos < len(blob):
        ch = blob[pos : pos + 1]
        if ch == b"#":
            nl = blob.find(b"\n", pos)
            pos = len(blob) if nl < 0 else nl + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(blob) and not blob[end : end + 1].isspace():
                end += 1
            tokens.append(blob[pos:end])
            pos = end
    if len(tokens) < 4:
        raise InvalidInputError(f"{path}: incomplete raster header")
    magic = tokens[0]
    if magic not in (b"P5", b"P2"):
        raise InvalidInputError(f"{path}: not a supported raster format")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise InvalidInputError(f"{path}: malformed raster header") from None
    if width < 1 or height < 1:
        raise InvalidInputError(f"{path}: zero-dimension image")
    if not 1 <= maxval <= 255:
        raise InvalidInputError(f"{path}: only 8-bit rasters are supported")

    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
        data = blob[pos : pos + width * height]
        if len(data) < width * height:
            raise InvalidInputError(f"{path}: pixel data ends early")
        pixels = np.frombuffer(data, dtype=np.uint8).astype(float)
    else:
        try:
            flat = [int(t) for t in blob[pos:].split()]
        except ValueError:
            raise InvalidInputError(f"{path}: non-integer ASCII pixel") from None
        if len(flat) < width * height:
            raise InvalidInputError(f"{path}: pixel data ends early")
        pixels = np.array(flat[: width * height], dtype=float)
    if pixels.max(initial=0.0) > maxval:
        raise InvalidInputError(f"{path}: pixel value exceeds declared maximum")
    return pixels.reshape(height, width)


def bilinear_resize(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Center-aligned bilinear resample; identity when sizes already match."""
    image = np.asarray(image, dtype=float)
    in_h, in_w = image.shape

    def axis_coords(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(int)
        hi = np.minimum(lo + 1, n_in - 1)
        return lo, hi, src - lo

    y0, y1, wy = axis_coords(in_h, out_h)
    x0, x1, wx = axis_coords(in_w, out_w)
    wy = wy[:, None]
    wx = wx[None, :]
    top = image[np.ix_(y0, x0)] * (1 - wx) + image[np.ix_(y0, x1)] * wx
    bottom = image[np.ix_(y1, x0)] * (1 - wx) + image[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


def load_raster_dir(root) -> tuple[Dataset, int, dict[str, int]]:
    """Ingest ``root/<class-name>/<images>`` into RASTER_SIZE [0,1] vectors.

    Class names map to indices 1..C in sorted order. Unreadable files are
    skipped; the number skipped is returned so callers can warn. A class
    whose directory yields no usable image invalidates the dataset.
    """
    root = Path(root)
    if not root.is_dir():
        raise InvalidInputError(f"{root}: not a directory")
    class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not class_dirs:
        raise InvalidInputError(f"{root}: no class subdirectories")

    out_h, out_w = RASTER_SIZE
    rows: list[np.ndarray] = []
    labels: list[int] = []
    skipped = 0
    class_map: dict[str, int] = {}
    for index, cdir in enumerate(class_dirs, start=1):
        class_map[cdir.name] = index
        loaded = 0
        for f in sorted(p for p in cdir.iterdir() if p.is_file()):
            try:
                img = _read_pgm(f)
            except (InvalidInputError, OSError):
                skipped += 1
                continue
            vec = bilinear_resize(img, out_h, out_w).reshape(-1) / 255.0
            rows.append(vec)
            labels.append(index)
            loaded += 1
        if loaded == 0:
            raise InvalidInputError(f"{cdir}: class directory has no usable image")
    return Dataset(np.vstack(rows), np.array(labels)), skipped, class_map


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Gaussian classes: mean separation * e_k per class, isotropic sigma.

    When there are more classes than dimensions, the means beyond the
    available axes fall back to seeded random unit directions.
    """
    rng = np.random.default_rng(spec.seed)
    means = np.zeros((spec.class_count, spec.dim))
    for k in range(spec.class_count):
        if k < spec.dim:
            means[k, k] = spec.separation
        else:
            direction = rng.normal(size=spec.dim)
            direction /= np.linalg.norm(direction)
            means[k] = spec.separation * direction
    blocks = [
        means[k] + spec.sigma * rng.normal(size=(spec.per_class, spec.dim))
        for k in range(spec.class_count)
    ]
    labels = np.repeat(np.arange(1, spec.class_count + 1), spec.per_class)
    return Dataset(np.vstack(blocks), labels)


def split_random(
    ds: Dataset, spec: SplitSpec, repetition: int
) -> tuple[Dataset, Dataset]:
    """Per class, draw exactly per_class_train samples to train, rest to test.

    The draw is a pure function of (spec.seed, repetition). Row order of the
    originals is preserved within each side of the split.
    """
    k = spec.per_class_train
    for c in range(1, ds.class_count + 1):
        count = int(np.sum(ds.labels == c))
        if count <= k:
            raise InvalidInputError(
                f"class {c} has {count} samples; need more than {k} to split"
            )
    rng = np.random.default_rng([spec.seed, repetition])
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for c in range(1, ds.class_count + 1):
        idx = np.flatnonzero(ds.labels == c)
        perm = rng.permutation(idx.size)
        train_idx.append(idx[perm[:k]])
        test_idx.append(idx[perm[k:]])
    tr = np.sort(np.concatenate(train_idx))
    te = np.sort(np.concatenate(test_idx))
    return (
        Dataset(ds.samples[tr], ds.labels[tr]),
        Dataset(ds.samples[te], ds.labels[te]),
    )
