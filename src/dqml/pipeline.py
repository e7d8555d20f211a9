"""End-to-end training and classification.

One PSD matrix is trained per class against the scatter of all other
classes' samples. A sample's feature vector collects its quadratic forms
under every class matrix; classification either takes the largest component
directly or runs cosine nearest-neighbor against the training features.
"""

from __future__ import annotations

import struct
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
)
from .qml import (
    ClassProblem,
    TrainedQuadraticMatrix,
    build_scatter,
    solve_dual,
)
from .symmat import SymmetricMatrix, quad_forms

MODEL_MAGIC = b"DQML"
MODEL_FORMAT_VERSION = 1
FEATURE_FLOOR = -1e-8


@dataclass(frozen=True)
class Dataset:
    """Labeled samples: one row per sample, labels contiguous in 1..C."""

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
        c = int(y.max())
        present = np.unique(y)
        if present.size != c:
            missing = sorted(set(range(1, c + 1)) - set(present.tolist()))
            raise InvalidInputError(f"labels must cover 1..{c}; missing {missing}")
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
    """All per-class matrices plus the training features used by cosine NN."""

    matrices: tuple[TrainedQuadraticMatrix, ...]
    lam: float
    training_features: np.ndarray
    training_labels: np.ndarray

    def __post_init__(self) -> None:
        if len(self.matrices) < 1:
            raise InvalidInputError("a model needs at least one class matrix")
        dims = {t.matrix.dim for t in self.matrices}
        if len(dims) != 1:
            raise InvalidInputError(f"class matrices disagree on dimension: {sorted(dims)}")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise InvalidInputError(f"lam must be positive and finite, got {self.lam}")
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
        f.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "matrices", tuple(self.matrices))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "training_features", f)
        object.__setattr__(self, "training_labels", y)

    @property
    def class_count(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].matrix.dim


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
    """(n, C) feature matrix: entry (i, c) is x_i^T P_c x_i."""
    f = np.stack([quad_forms(t.matrix.entries, x) for t in matrices], axis=1)
    _check_features(f)
    return f


def _nn_cosine_labels(f: np.ndarray, model: ModelSet) -> np.ndarray:
    """Label of the training feature most cosine-similar to each row of f.

    Zero-norm stored features can never win; a zero-norm query has no
    defined direction and is rejected.
    """
    qn = np.linalg.norm(f, axis=1)
    if (qn == 0.0).any():
        raise DegenerateFeatureError("query feature vector has zero norm")
    col_norms = np.linalg.norm(model.training_features, axis=0)
    if not (col_norms > 0.0).any():
        raise DegenerateFeatureError("every training feature has zero norm")
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (f @ model.training_features) / (qn[:, None] * col_norms)
    cos[:, col_norms == 0.0] = -np.inf
    return model.training_labels[np.argmax(cos, axis=1)]


def train_model_set(ds: Dataset, lam: float) -> ModelSet:
    """Train every class matrix and the training feature matrix.

    Classes are independent problems, solved one after another in class
    order, each at solve_dual's one stopping rule.
    """
    trained = []
    for c in range(1, ds.class_count + 1):
        try:
            trained.append(solve_dual(build_class_problem(ds, c, lam)))
        except InfeasibleProblemError as exc:
            raise InfeasibleProblemError(f"class {c}: {exc}") from exc
    features = _feature_matrix(trained, ds.samples)
    return ModelSet(
        matrices=tuple(trained),
        lam=lam,
        # Row-major (C, n), the layout load_model gives, so that cosine NN
        # rounds the same on a trained model and on its reloaded copy.
        training_features=np.ascontiguousarray(features.T),
        training_labels=ds.labels,
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
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (test.labels - 1, pred - 1), 1)
    wrong = int(np.count_nonzero(pred != test.labels))
    return EvaluationResult(error_rate=wrong / test.n, confusion=confusion)


@dataclass(frozen=True)
class CvEntry:
    lam: float
    mean_error: float
    fold_errors: tuple[float, ...]


def _stratified_folds(ds: Dataset, folds: int, seed: int) -> list[np.ndarray]:
    """Validation index sets, class-stratified.

    Classes with fewer samples than folds stay in every training fold and
    are never validated on; their samples appear in no validation set.
    """
    rng = np.random.default_rng(seed)
    assignments: list[list[int]] = [[] for _ in range(folds)]
    for c in range(1, ds.class_count + 1):
        idx = np.flatnonzero(ds.labels == c)
        if idx.size < folds:
            continue
        perm = idx[rng.permutation(idx.size)]
        for j in range(folds):
            assignments[j].extend(perm[j::folds].tolist())
    return [np.array(sorted(a), dtype=np.int64) for a in assignments]


def cross_validate_lambda(
    ds: Dataset,
    grid,
    folds: int = 10,
    seed: int = 0,
) -> tuple[float, tuple[CvEntry, ...]]:
    """Pick the regularization weight by stratified k-fold cross-validation.

    Validation uses the cosine-NN rule. Returns the grid value with the
    lowest mean validation error, ties resolved toward the smaller value,
    along with the full error table.
    """
    grid = [float(g) for g in grid]
    if len(grid) == 0:
        raise InvalidInputError("lambda grid must be nonempty")
    if any(not (np.isfinite(g) and g > 0) for g in grid):
        raise InvalidInputError("lambda grid values must be positive and finite")
    if len(set(grid)) < len(grid):
        raise InvalidInputError(f"lambda grid {grid} repeats a value")
    if folds < 2:
        raise InvalidInputError("folds must be at least 2")

    # Checked before _stratified_folds allocates one list per fold. When some
    # class has at least `folds` samples, every fold gets a validation sample.
    if folds > np.bincount(ds.labels).max():
        raise InvalidInputError(
            f"no class has at least {folds} samples; nothing can be validated"
        )

    fold_sets = _stratified_folds(ds, folds, seed)
    entries = []
    for lam in grid:
        fold_errors = []
        for val_idx in fold_sets:
            train_mask = np.ones(ds.n, dtype=bool)
            train_mask[val_idx] = False
            train_ds = Dataset(ds.samples[train_mask], ds.labels[train_mask])
            model = train_model_set(train_ds, lam)
            pred = _nn_cosine_labels(
                _feature_matrix(model.matrices, ds.samples[val_idx]), model
            )
            wrong = int(np.count_nonzero(pred != ds.labels[val_idx]))
            fold_errors.append(wrong / val_idx.size)
        entries.append(
            CvEntry(
                lam=lam,
                mean_error=float(np.mean(fold_errors)),
                fold_errors=tuple(fold_errors),
            )
        )
    best = min(entries, key=lambda e: (e.mean_error, e.lam))
    return best.lam, tuple(entries)


def save_model(model: ModelSet, path) -> None:
    """Write the binary model file (see load_model for the layout)."""
    m = model.dim
    c = model.class_count
    n = model.training_labels.shape[0]
    parts = [
        MODEL_MAGIC,
        struct.pack("<III", MODEL_FORMAT_VERSION, m, c),
        struct.pack("<d", model.lam),
    ]
    for t in model.matrices:
        parts.append(np.ascontiguousarray(t.matrix.entries, dtype="<f8").tobytes())
    parts.append(struct.pack("<I", n))
    parts.append(np.ascontiguousarray(model.training_features, dtype="<f8").tobytes())
    parts.append(model.training_labels.astype("<u4").tobytes())
    payload = b"".join(parts)
    checksum = zlib.crc32(payload) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(struct.pack("<I", checksum))


def load_model(path) -> ModelSet:
    """Read a model file written by save_model.

    Layout, little-endian: magic "DQML", format version u32, m u32, C u32,
    lam f64, C blocks of m*m f64 row-major matrix entries, n u32, training
    features C x n f64 row-major, training labels n x u32, CRC32 u32 of all
    preceding bytes. Loaded matrices carry no solve diagnostics.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MODEL_MAGIC) or blob[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ModelFormatError("not a model file: bad magic bytes")
    if len(blob) < 8:
        raise ModelTruncatedError("model file ends inside the header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != MODEL_FORMAT_VERSION:
        raise ModelVersionError(
            f"model format version {version} is not supported "
            f"(this build reads version {MODEL_FORMAT_VERSION})"
        )
    header_len = 24  # magic, version, m, C, lam
    if len(blob) < header_len:
        raise ModelTruncatedError("model file ends inside the header")
    m, c = struct.unpack_from("<II", blob, 8)
    (lam,) = struct.unpack_from("<d", blob, 16)
    if m < 1 or c < 1:
        raise ModelFormatError(f"nonsensical dimensions in header: m={m}, C={c}")

    # Structural completeness first (truncation), then integrity (checksum):
    # the declared sizes say exactly how long the file must be.
    n_offset = header_len + 8 * m * m * c
    if len(blob) < n_offset + 4:
        raise ModelTruncatedError("model file ends inside the matrix payload")
    (n,) = struct.unpack_from("<I", blob, n_offset)
    total = n_offset + 4 + 8 * c * n + 4 * n + 4
    if len(blob) < total:
        raise ModelTruncatedError(
            f"model file ends {total - len(blob)} bytes early"
        )
    if len(blob) > total:
        raise ModelFormatError(f"{len(blob) - total} unexpected trailing bytes")
    (expected,) = struct.unpack_from("<I", blob, total - 4)
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != expected:
        raise ModelChecksumError("model file checksum mismatch")

    matrices = []
    offset = header_len
    for _ in range(c):
        raw = np.frombuffer(blob, dtype="<f8", count=m * m, offset=offset)
        matrices.append(
            TrainedQuadraticMatrix(
                matrix=SymmetricMatrix(raw.reshape(m, m)), dual=None, report=None
            )
        )
        offset += 8 * m * m
    offset = n_offset + 4
    features = np.frombuffer(blob, dtype="<f8", count=c * n, offset=offset).reshape(c, n)
    offset += 8 * c * n
    labels = np.frombuffer(blob, dtype="<u4", count=n, offset=offset).astype(np.int64)
    return ModelSet(
        matrices=tuple(matrices),
        lam=lam,
        training_features=features,
        training_labels=labels,
    )
