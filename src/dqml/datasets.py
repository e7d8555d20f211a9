"""Dataset ingestion and synthesis.

CSV loading with contiguous relabeling, synthetic Gaussian class generators,
and the repeated random train/test split protocol.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn, TextIO

import numpy as np

from .errors import InvalidInputError
from .pipeline import Dataset, _is_number, _replace_file


@dataclass(frozen=True)
class SplitSpec:
    """Repeated-split protocol: per_class_train samples to train, rest to test."""

    per_class_train: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not (_is_number(self.per_class_train) and self.per_class_train >= 1):
            raise InvalidInputError(
                f"per_class_train must be an integer of at least 1, got {self.per_class_train!r}"
            )
        if not (_is_number(self.seed) and self.seed >= 0):
            raise InvalidInputError(f"seed must be a non-negative integer, got {self.seed!r}")


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
        for name in ("class_count", "dim", "per_class"):
            count = getattr(self, name)
            if not (_is_number(count) and count >= 1):
                raise InvalidInputError(f"{name} must be an integer of at least 1, got {count!r}")
        if not (_is_number(self.seed) and self.seed >= 0):
            raise InvalidInputError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (np.isfinite(self.separation) and self.separation >= 0):
            raise InvalidInputError("separation must be nonnegative and finite")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidInputError("sigma must be positive and finite")


def load_csv(path) -> tuple[Dataset, dict[int, int]]:
    """Read rows of ``label,v1,...,vm``; the first line is data, not a header.

    A leading byte-order mark, blank lines and whitespace around a cell are
    skipped. Labels are positive integers, relabeled to contiguous 1..C in
    sorted order of the original values, so labels that already are 1..C
    keep their values. Values must be finite. The original -> new map is
    returned alongside the dataset.

    The lines stream from the open file into numpy's parser, so no copy of
    the whole text is held; only the error path reads the file a second time,
    to name the first bad row.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            first = next(filter(str.strip, fh), None)
            if first is None:
                raise InvalidInputError(f"{path}: no data rows")
            width = first.count(",") + 1
            fh.seek(0)
            if width < 2:
                _raise_first_bad_row(path, fh, "need a label and a value")
            try:
                table = _parse(filter(str.strip, fh), _row_dtype(width))
            except UnicodeDecodeError:
                raise
            except ValueError as exc:
                _raise_first_bad_row(path, fh, str(exc))
            if table["label"].min() < 1 or not np.isfinite(table["x"]).all():
                _raise_first_bad_row(path, fh, "label below 1 or non-finite value")
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: not UTF-8 text") from None

    originals, labels = np.unique(table["label"], return_inverse=True)
    relabel = {lab: new for new, lab in enumerate(originals.tolist(), start=1)}
    return Dataset(table["x"], labels + 1), relabel


def _row_dtype(width: int) -> np.dtype:
    """One CSV row of ``width`` cells: an int64 label, then width - 1 doubles."""
    return np.dtype([("label", "i8"), ("x", "f8", (width - 1,))])


def _parse(lines, dtype) -> np.ndarray:
    """Parse comma-separated ``lines`` with numpy, raising any warning as a ValueError.

    Two warnings matter: numpy releases that still read an i8 cell such as
    1.5 through float only give a DeprecationWarning, and an empty cell
    parsed alone is an empty line, which numpy skips with an "input contained
    no data" UserWarning. Either way the cell is refused.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except Warning as exc:
            raise ValueError(str(exc)) from None


def _raise_first_bad_row(path, fh: TextIO, reason: str) -> NoReturn:
    """Raise the InvalidInputError that names the first malformed data line.

    Only load_csv's error path calls this; it reads ``fh`` again from the
    start and hands numpy one line at a time, so the row named is the first
    one numpy refuses. ``reason`` is the error raised when every line passes.
    """
    fh.seek(0)
    width = None
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        count = line.count(",") + 1
        where = f"{path}: row {lineno}"
        if width is None:
            width = count
            if width < 2:
                raise InvalidInputError(f"{where}: need a label and at least one value")
            dtype = _row_dtype(width)
        elif count != width:
            raise InvalidInputError(f"{where}: expected {width} cells, got {count}")
        try:
            (row,) = _parse([line], dtype)
        except ValueError:
            label = line.split(",", 1)[0]
            try:
                _parse([label], "i8")
            except ValueError:
                raise InvalidInputError(
                    f"{where}: label {label!r} is not an integer that fits in 64 bits"
                ) from None
            raise InvalidInputError(f"{where}: non-numeric value") from None
        if row["label"] < 1:
            raise InvalidInputError(f"{where}: label must be positive, got {row['label']}")
        if not np.isfinite(row["x"]).all():
            raise InvalidInputError(f"{where}: non-finite value")
    raise InvalidInputError(f"{path}: {reason}")


def save_csv(ds: Dataset, path) -> None:
    """Write ``label,v1,...,vm`` rows; a rerun produces identical bytes.

    Each value is written as Python's shortest round-trip ``repr`` of the
    double, so load_csv reads back the same doubles bit for bit, and the
    bytes do not depend on the numpy version. Rows are converted to Python
    floats one block at a time with ``tolist()``. The block holds about 1024
    values whatever the dimension, so the temporary lists and text stay a few
    tens of kilobytes on wide data as on narrow. The file is replaced in one
    step, as save_model replaces a model.
    """
    block = max(1, 1024 // ds.dim)
    _replace_file(path, (
        "".join(f"{label},{','.join(map(repr, row))}\n"
                for label, row in zip(ds.labels[s:s + block].tolist(),
                                      ds.samples[s:s + block].tolist())).encode()
        for s in range(0, ds.n, block)
    ))


def write_sidecar(csv_path, entries: dict) -> Path:
    """Write dataset metadata next to a CSV as ``key: value`` lines, replaced in one step."""
    sidecar = Path(str(csv_path) + ".meta")
    text = "".join(f"{key}: {value}\n" for key, value in entries.items())
    _replace_file(sidecar, [text.encode()])
    return sidecar


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
    rng = np.random.default_rng([spec.seed, repetition])
    train = np.zeros(ds.n, dtype=bool)
    for c in range(1, ds.class_count + 1):
        idx = np.flatnonzero(ds.labels == c)
        if idx.size <= k:
            raise InvalidInputError(
                f"class {c} has {idx.size} samples; need more than {k} to split"
            )
        train[idx[rng.permutation(idx.size)[:k]]] = True
    return (
        Dataset(ds.samples[train], ds.labels[train]),
        Dataset(ds.samples[~train], ds.labels[~train]),
    )
