"""End-to-end training and classification.

One PSD matrix is trained per class against the scatter of all other
classes' samples. A sample's feature vector collects its quadratic forms
under every class matrix; classification either takes the largest component
directly or runs cosine nearest-neighbor against the training features.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
import struct
import uuid
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFeatureError,
    InfeasibleProblemError,
    InvalidInputError,
    ModelChecksumError,
    ModelFormatError,
    ModelTruncatedError,
    ModelVersionError,
    NumericalFailureError,
)
from .qml import (
    ClassProblem,
    TrainedQuadraticMatrix,
    _is_number,
    build_scatter,
    solve_dual,
)

MODEL_MAGIC = b"DQML"
MODEL_FORMAT_VERSION = 3
FEATURE_FLOOR = -1e-8
# One class's solve summary in a model file; termination indexes _TERMINATIONS.
_SUMMARY = np.dtype([("termination", "<u4"), ("iterations", "<u4"), ("evaluations", "<u4"),
                     ("grad_inf_norm", "<f8"), ("duality_gap", "<f8"), ("max_violation", "<f8"),
                     ("suboptimality", "<f8")])
_TERMINATIONS = (None, "converged", "max_iterations", "line_search_failed")


@dataclass(frozen=True)
class Dataset:
    """Labeled samples: one row per sample, labels in 1..C; a class may have none."""

    samples: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        x = np.array(self.samples, dtype=float, copy=True)
        y = np.array(self.labels, copy=True)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise InvalidInputError(f"samples must be a nonempty 2-d array, got {x.shape}")
        if not np.isfinite(x).all():
            raise InvalidInputError("samples have non-finite entries")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise InvalidInputError(
                f"labels must be 1-d with one entry per sample, got {y.shape}"
            )
        if not np.issubdtype(y.dtype, np.integer):
            raise InvalidInputError("labels must be integers")
        y = y.astype(np.int64)
        if y.min() < 1:
            raise InvalidInputError("labels must be positive")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "samples", x)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def class_count(self) -> int:
        return int(self.labels.max())


@dataclass(frozen=True)
class FeatureVector:
    """Quadratic forms of one sample under every class matrix."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 1 or v.shape[0] < 1:
            raise InvalidInputError(f"feature vector must be 1-d and nonempty, got {v.shape}")
        _check_features(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def _check_features(v: np.ndarray) -> None:
    """Quadratic forms of a PSD matrix are finite and not below FEATURE_FLOOR."""
    if not np.isfinite(v).all():
        raise InvalidInputError("feature vector has non-finite entries")
    if (v < FEATURE_FLOOR).any():
        raise InvalidInputError(
            "feature vector has a component below the PSD floor "
            f"{FEATURE_FLOOR}: min {v.min()}"
        )


@dataclass(frozen=True)
class ModelSet:
    """All per-class matrices, the training features used by cosine NN, each class's
    original label (default 1..C) and how its solve ended (None if unknown)."""

    matrices: tuple[TrainedQuadraticMatrix, ...]
    lam: float
    training_features: np.ndarray
    training_labels: np.ndarray
    class_labels: tuple[int, ...] | None = None
    summaries: tuple[dict, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.matrices) < 1:
            raise InvalidInputError("a model needs at least one class matrix")
        dims = {t.factor.shape[0] for t in self.matrices}
        if len(dims) != 1:
            raise InvalidInputError(f"class matrices disagree on dimension: {sorted(dims)}")
        if not (_is_number(self.lam, numbers.Real) and 0 < self.lam < np.inf):
            raise InvalidInputError(f"lam must be positive and finite, got {self.lam!r}")
        f = np.array(self.training_features, dtype=float, copy=True)
        y = np.array(self.training_labels, copy=True)
        if f.ndim != 2 or f.shape[0] != len(self.matrices):
            raise InvalidInputError(
                f"training features must be (classes, samples), got {f.shape}"
            )
        _check_features(f)
        if y.ndim != 1 or y.shape[0] != f.shape[1]:
            raise InvalidInputError("one training label per feature column required")
        if not np.issubdtype(y.dtype, np.integer):
            raise InvalidInputError("training labels must be integers")
        y = y.astype(np.int64)
        if y.size and (y.min() < 1 or y.max() > len(self.matrices)):
            raise InvalidInputError("training labels out of class range")
        c = len(self.matrices)
        labels = range(1, c + 1) if self.class_labels is None else tuple(self.class_labels)
        # A bool or a float label would otherwise pass through int() silently.
        if (not all(_is_number(v) for v in labels)
                or not len(set(labels)) == len(labels) == c
                or min(labels) < 1 or max(labels) >= 2**63):
            raise InvalidInputError(f"class labels must be {c} distinct integers in 1..2**63-1")
        labels = tuple(int(v) for v in labels)
        if self.summaries is not None and len(self.summaries) != c:
            raise InvalidInputError(f"a model of {c} classes needs {c} solve summaries")
        _summary_rows(self.summaries, c)
        f.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "matrices", tuple(self.matrices))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "training_features", f)
        object.__setattr__(self, "training_labels", y)
        object.__setattr__(self, "class_labels", labels)

    @property
    def class_count(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].factor.shape[0]


def build_class_problem(ds: Dataset, c: int, lam: float) -> ClassProblem:
    """One-vs-rest problem for class c: its samples against the others' scatter."""
    if not 1 <= c <= ds.class_count:
        raise InvalidInputError(f"class {c} out of range 1..{ds.class_count}")
    mask = ds.labels == c
    intra = ds.samples[mask]
    extra = ds.samples[~mask]
    return ClassProblem(
        intra=intra,
        extra_scatter=build_scatter(extra),
        lam=lam,
        margin=1.0,
    )


def _feature_matrix(matrices, x: np.ndarray) -> np.ndarray:
    """(n, C) feature matrix: entry (i, c) is x_i^T P_c x_i = ||W_c^T x_i||^2,
    the row sums of (X W_c)^2 for the factor W_c of P_c. A model whose every
    class matrix is zero gives every sample zero features and is refused."""
    if not any(t.factor.any() for t in matrices):
        raise DegenerateFeatureError("every class matrix is zero")
    f = np.stack([np.einsum("ij,ij->i", y, y) for y in (x @ t.factor for t in matrices)], axis=1)
    _check_features(f)
    return f


def _nn_cosine_labels(f: np.ndarray, model: ModelSet) -> np.ndarray:
    """Label of the training feature most cosine-similar to each row of f.

    Zero-norm stored features can never win; a zero-norm query has no
    defined direction and is rejected. Rows are scored one block at a time,
    each block's cosine array holding about 32768 floats (256 KiB), so the
    working memory is bounded by the block, not by the number of queries.
    """
    qn = np.linalg.norm(f, axis=1)
    if (qn == 0.0).any():
        raise DegenerateFeatureError("query feature vector has zero norm")
    t = model.training_features
    col_norms = np.linalg.norm(t, axis=0)
    dead = col_norms == 0.0
    if dead.all():
        raise DegenerateFeatureError("every training feature has zero norm")
    block = max(1, 32768 // t.shape[1])
    best = np.empty(f.shape[0], dtype=np.intp)
    for start in range(0, f.shape[0], block):
        stop = start + block
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = (f[start:stop] @ t) / (qn[start:stop, None] * col_norms)
        cos[:, dead] = -np.inf
        best[start:stop] = np.argmax(cos, axis=1)
    return model.training_labels[best]


def train_model_set(ds: Dataset, lam: float) -> ModelSet:
    """Train every class matrix and the training feature matrix.

    Classes are independent problems, solved one after another in class
    order, each at solve_dual's one stopping rule. Raises
    NumericalFailureError when every class matrix comes out zero: such a
    model gives every sample zero features.
    """
    trained = []
    for c in range(1, ds.class_count + 1):
        if not (ds.labels == c).any():
            raise InvalidInputError(f"class {c} has no training sample")
        try:
            trained.append(solve_dual(build_class_problem(ds, c, lam)))
        except (InfeasibleProblemError, InvalidInputError) as exc:
            raise type(exc)(f"class {c}: {exc}") from exc
    if not any(t.factor.any() for t in trained):
        raise NumericalFailureError("every class matrix is zero; the dual solver stalled")
    features = _feature_matrix(trained, ds.samples)
    return ModelSet(
        matrices=tuple(trained),
        lam=lam,
        # Row-major (C, n), the layout load_model gives, so that cosine NN
        # rounds the same on a trained model and on its reloaded copy.
        training_features=np.ascontiguousarray(features.T),
        training_labels=ds.labels,
        summaries=tuple(
            dict(zip(_SUMMARY.names, (r.termination, r.iterations, r.objective_evals,
                                      r.grad_inf_norm, r.duality_gap, r.max_violation,
                                      r.suboptimality)))
            for r in (t.report for t in trained)
        ),
    )


def extract_features(model: ModelSet, x: np.ndarray) -> FeatureVector:
    """Feature vector (x^T P_1 x, ..., x^T P_C x)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise InvalidInputError(f"expected a vector of length {model.dim}, got {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidInputError("sample has non-finite entries")
    return FeatureVector(_feature_matrix(model.matrices, x[None, :])[0])


def classify_max(f: FeatureVector) -> int:
    """Class of the largest feature component; ties go to the smallest index."""
    return int(np.argmax(f.values)) + 1


def classify_nn_cosine(f: FeatureVector, model: ModelSet) -> int:
    """Label of the training feature most cosine-similar to f.

    Zero-norm stored features can never win; a zero-norm query has no
    defined direction and is rejected.
    """
    if f.values.shape != (model.class_count,):
        raise InvalidInputError(
            f"feature vector has {f.values.shape[0]} components, model has "
            f"{model.class_count} classes"
        )
    return int(_nn_cosine_labels(f.values[None, :], model)[0])


@dataclass(frozen=True)
class EvaluationResult:
    error_rate: float
    confusion: np.ndarray  # confusion[true - 1, predicted - 1] counts


def evaluate(model: ModelSet, test: Dataset, rule: str) -> EvaluationResult:
    """Error rate of the chosen rule on a labeled test set."""
    if rule not in ("max", "nn_cosine"):
        raise InvalidInputError(f"unknown rule {rule!r}; expected 'max' or 'nn_cosine'")
    if test.dim != model.dim:
        raise InvalidInputError(
            f"test samples are {test.dim}-dimensional, model is {model.dim}"
        )
    if test.class_count > model.class_count:
        raise InvalidInputError(
            f"test labels reach class {test.class_count}, model has "
            f"{model.class_count}"
        )
    f = _feature_matrix(model.matrices, test.samples)
    pred = np.argmax(f, axis=1) + 1 if rule == "max" else _nn_cosine_labels(f, model)
    c = model.class_count
    confusion = np.bincount(
        (test.labels - 1) * c + (pred - 1), minlength=c * c
    ).reshape(c, c)
    wrong = int(np.count_nonzero(pred != test.labels))
    return EvaluationResult(error_rate=wrong / test.n, confusion=confusion)


@dataclass(frozen=True)
class CvEntry:
    """One grid value's validation errors, with how its fold solves ended:
    unconverged counts the class solves of all folds that did not converge,
    and worst_grad_inf_norm is the largest final gradient among them all."""

    lam: float
    mean_error: float
    fold_errors: tuple[float, ...]
    unconverged: int
    worst_grad_inf_norm: float


def _stratified_folds(ds: Dataset, folds: int, seed: int) -> np.ndarray:
    """The validation fold (0..folds-1, class-stratified) of each sample, or -1
    for the samples of a class smaller than folds: such a class stays in every
    training fold and is never validated on."""
    rng = np.random.default_rng(seed)
    fold = np.full(ds.n, -1, dtype=np.int64)
    for c in range(1, ds.class_count + 1):
        idx = np.flatnonzero(ds.labels == c)
        if idx.size >= folds:
            fold[idx[rng.permutation(idx.size)]] = np.arange(idx.size) % folds
    return fold


def cross_validate_lambda(
    ds: Dataset,
    grid,
    folds: int = 10,
    seed: int = 0,
) -> tuple[float, tuple[CvEntry, ...]]:
    """Pick the regularization weight by stratified k-fold cross-validation.

    Each fold is scored by evaluate's cosine-NN rule. Returns the grid value
    with the lowest mean validation error, ties resolved toward the smaller
    value, along with the full error table. A NumericalFailureError of a fold's
    training is raised again with the lambda and the fold (1..folds) named.
    """
    # A value that is not a real number (a bool, a string) becomes nan, refused below.
    grid = [float(g) if _is_number(g, numbers.Real) else math.nan for g in grid]
    if len(grid) == 0:
        raise InvalidInputError("lambda grid must be nonempty")
    if any(not (np.isfinite(g) and g > 0) for g in grid):
        raise InvalidInputError("lambda grid values must be positive and finite")
    if len(set(grid)) < len(grid):
        raise InvalidInputError(f"lambda grid {grid} repeats a value")
    if not (_is_number(folds) and folds >= 2):
        raise InvalidInputError(f"folds must be an integer of at least 2, got {folds!r}")
    if not (_is_number(seed) and seed >= 0):
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed!r}")

    # Checked before the fold loop, which a huge count would never end. When
    # some class has at least `folds` samples, every fold gets a validation sample.
    if folds > np.bincount(ds.labels).max():
        raise InvalidInputError(
            f"no class has at least {folds} samples; nothing can be validated"
        )

    fold = _stratified_folds(ds, folds, seed)
    entries = []
    for lam in grid:
        fold_errors, reports = [], []
        for j in range(folds):
            val = fold == j
            try:
                model = train_model_set(Dataset(ds.samples[~val], ds.labels[~val]), lam)
            except NumericalFailureError as exc:
                raise NumericalFailureError(f"lambda {lam:g}, fold {j + 1}: {exc}") from exc
            reports.extend(t.report for t in model.matrices)
            val_ds = Dataset(ds.samples[val], ds.labels[val])
            fold_errors.append(evaluate(model, val_ds, "nn_cosine").error_rate)
        entries.append(
            CvEntry(
                lam=lam,
                mean_error=float(np.mean(fold_errors)),
                fold_errors=tuple(fold_errors),
                unconverged=sum(not r.converged for r in reports),
                worst_grad_inf_norm=max(r.grad_inf_norm for r in reports),
            )
        )
    best = min(entries, key=lambda e: (e.mean_error, e.lam))
    return best.lam, tuple(entries)


def _summary_rows(summaries, c: int) -> np.ndarray:
    """The model file's C solve summaries, all zero when there are none. Raises
    InvalidInputError naming the first class whose summary the file cannot hold:
    a missing key, an unknown termination, a count that is not an integer in
    u32, or a float field that is not a real number (a bool is neither)."""
    rows = np.zeros(c, dtype=_SUMMARY)
    for i, s in enumerate(summaries or ()):
        try:
            for k in _SUMMARY.names[1:]:
                kind, what = ((numbers.Integral, "an integer") if _SUMMARY[k].kind == "u"
                              else (numbers.Real, "a real number"))
                if not _is_number(s[k], kind):
                    raise TypeError(f"{k} must be {what}")
            rows[i] = (_TERMINATIONS.index(s["termination"]),
                       *(s[k] for k in _SUMMARY.names[1:]))
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise InvalidInputError(f"class {i + 1}: cannot store summary {s!r}: {exc!r}") from exc
    return rows


def save_model(model: ModelSet, path) -> None:
    """Write the binary model file (see load_model for the layout).

    The file is replaced in one step, so readers see the old model or the
    new one, never a part.
    """
    c = model.class_count
    parts = [
        MODEL_MAGIC,
        struct.pack("<IIId", MODEL_FORMAT_VERSION, model.dim, c, model.lam),
        np.array([t.factor.shape[1] for t in model.matrices], dtype="<u4").tobytes(),
        *(t.factor.astype("<f8").tobytes() for t in model.matrices),
        struct.pack("<I", model.training_labels.shape[0]),
        np.asarray(model.training_features, dtype="<f8").tobytes(),
        model.training_labels.astype("<u4").tobytes(),
        np.array(model.class_labels, dtype="<i8").tobytes(),
        _summary_rows(model.summaries, c).tobytes(),
    ]
    payload = b"".join(parts)
    _replace_file(path, (payload, struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)))


def _replace_file(path, chunks) -> None:
    """Write the byte chunks to path via a fresh file beside it and one rename,
    so a failed write leaves an existing file whole and removes its own file.
    An OSError with a message is raised again naming path, not that file."""
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.strerror:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def load_model(path) -> ModelSet:
    """Read a model file written by save_model.

    Layout of version 3, little-endian: magic "DQML", format version u32,
    m u32, C u32, lam f64, each class's rank r_c <= m C x u32, C blocks of
    m*r_c f64 row-major factor entries, n u32, training features C x n f64
    row-major, training labels n x u32 (1..C), the original label of each
    class C x i64, the solve summary of each class C x (termination,
    iterations, evaluations u32; grad_inf_norm, duality_gap, max_violation,
    suboptimality f64), CRC32 u32 of all preceding bytes. Every other
    version is refused. Loaded matrices carry no solve diagnostics.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MODEL_MAGIC) or blob[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ModelFormatError("not a model file: bad magic bytes")
    header_len = 24  # magic, version, m, C, lam
    if len(blob) < header_len:
        raise ModelTruncatedError("model file ends inside the header")
    version, m, c, lam = struct.unpack_from("<IIId", blob, 4)
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"model format version {version} is not supported "
            f"(this build reads version {MODEL_FORMAT_VERSION}); re-train it with this build"
        )
    if m < 1 or c < 1:
        raise ModelFormatError(f"nonsensical dimensions in header: m={m}, C={c}")

    # Structural completeness first (truncation), then integrity (checksum):
    # the declared sizes say exactly how long the file must be.
    start = header_len + 4 * c
    if len(blob) < start:
        raise ModelTruncatedError("model file ends inside the matrix payload")
    ranks = np.frombuffer(blob, "<u4", c, header_len).tolist()
    if max(ranks) > m:
        raise ModelFormatError(f"class {np.argmax(ranks) + 1} has rank {max(ranks)} > m={m}")
    n_offset = start + 8 * m * sum(ranks)
    if len(blob) < n_offset + 4:
        raise ModelTruncatedError("model file ends inside the matrix payload")
    (n,) = struct.unpack_from("<I", blob, n_offset)
    class_labels_offset = n_offset + 4 + 8 * c * n + 4 * n
    total = class_labels_offset + (8 + _SUMMARY.itemsize) * c + 4
    if len(blob) < total:
        raise ModelTruncatedError(f"model file ends {total - len(blob)} bytes early")
    if len(blob) > total:
        raise ModelFormatError(f"{len(blob) - total} unexpected trailing bytes")
    (expected,) = struct.unpack_from("<I", blob, total - 4)
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != expected:
        raise ModelChecksumError("model file checksum mismatch")

    ends = itertools.accumulate((8 * m * r for r in ranks), initial=start)
    matrices = [TrainedQuadraticMatrix(np.frombuffer(blob, "<f8", m * r, at).reshape(m, r),
                                       None, None) for at, r in zip(ends, ranks)]
    features = np.frombuffer(blob, "<f8", c * n, n_offset + 4).reshape(c, n)
    labels = np.frombuffer(blob, "<u4", n, n_offset + 4 + 8 * c * n).astype(np.int64)
    class_labels = np.frombuffer(blob, "<i8", c, class_labels_offset).tolist()
    rows = np.frombuffer(blob, _SUMMARY, c, class_labels_offset + 8 * c).tolist()
    if any(r[0] >= len(_TERMINATIONS) for r in rows):
        raise ModelFormatError("unknown termination code in a class summary")
    summaries = None
    if any(r[0] for r in rows):
        summaries = tuple(dict(zip(_SUMMARY.names, (_TERMINATIONS[r[0]], *r[1:])))
                          for r in rows)
    return ModelSet(tuple(matrices), lam, features, labels, class_labels, summaries)
