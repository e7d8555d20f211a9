"""The benchmark's workloads: set-up, one timed round, and its checks.

Every round of a workload makes the same calls on the same inputs, so the
share of failed operations is the same in every run. The data the solver sees
is fixed (the reference data set of acceptance test 8, or its 10-class,
64-dimensional sibling): on it 61 of 153 protocol solves and all 20 wide
solves stop unconverged, and whether a solve converges depends on its exact
input, so only a fixed input gives a failed count that repeats. ``--seed``
draws the held-out samples that are classified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dqml import datasets, pipeline
from dqml.datasets import SplitSpec, SynthSpec

import checks

GRID = (0.1, 0.3, 1.0, 3.0, 10.0)
FOLDS = 10
RULES = ("max", "nn_cosine")
REFERENCE_SEED = 42
SEPARATION = 6.0
SIGMA = 1.0
PER_CLASS_TRAIN = 20
# Held-out samples come from generator seed HELD_OUT_SEED_BASE + --seed, so no
# seed reproduces the reference stream the training samples come from.
HELD_OUT_SEED_BASE = 10_000


@dataclass
class Trained:
    """One final training: the model, its reloaded copy, both rules' results."""

    lam: float
    model: object  # dqml.ModelSet as trained
    loaded: object  # dqml.ModelSet read back from the model file
    results: dict  # rule -> dqml.EvaluationResult on the held-out set


@dataclass
class RoundOutput:
    train: object  # dqml.Dataset the models were trained on
    test: object  # dqml.Dataset of held-out samples
    trained: list[Trained]
    cv: tuple = ()  # (chosen lambda, CvEntry tuple) when the round runs CV
    solves: list = field(default_factory=list)  # SolveRecords of the round


def _reference_train(classes: int, dim: int):
    ds = datasets.generate_synthetic(
        SynthSpec(classes, dim, 70, SEPARATION, SIGMA, seed=REFERENCE_SEED)
    )
    train, _ = datasets.split_random(
        ds, SplitSpec(PER_CLASS_TRAIN, seed=REFERENCE_SEED), 0
    )
    return train


def _held_out(classes: int, dim: int, per_class: int, seed: int):
    return datasets.generate_synthetic(
        SynthSpec(classes, dim, per_class, SEPARATION, SIGMA, seed=HELD_OUT_SEED_BASE + seed)
    )


def _final(train, test, lam: float, model_path: Path) -> Trained:
    model = pipeline.train_model_set(train, lam)
    pipeline.save_model(model, model_path)
    loaded = pipeline.load_model(model_path)
    results = {rule: pipeline.evaluate(loaded, test, rule) for rule in RULES}
    return Trained(lam, model, loaded, results)


def _matrices(model) -> list[np.ndarray]:
    return [t.matrix.entries for t in model.matrices]


def _check_trained(name, t: Trained, out: RoundOutput) -> list[str]:
    """Certificates of the final solves, round trip, and both rules."""
    x, y = np.asarray(out.train.samples), np.asarray(out.train.labels)
    fails = []
    for c, tq in enumerate(t.model.matrices, start=1):
        fails += checks.solve_certificate(
            f"{name} class {c}",
            x[y == c],
            checks.scatter_of_others(x, y, c),
            t.lam,
            1.0,
            tq.matrix.entries,
            tq.dual.values,
            tq.report,
        )
    fails += checks.same_arrays(
        f"{name} reloaded matrices", _matrices(t.model), _matrices(t.loaded)
    )
    fails += checks.same_arrays(
        f"{name} reloaded features",
        [t.model.training_features, t.model.training_labels],
        [t.loaded.training_features, t.loaded.training_labels],
    )
    train_feats = checks.features(_matrices(t.loaded), x)
    if not np.allclose(train_feats.T, t.loaded.training_features, rtol=1e-10, atol=1e-12):
        fails.append(f"{name}: stored training features differ from x^T P x")
    fails += checks.classification(
        name,
        _matrices(t.loaded),
        np.asarray(t.loaded.training_features).T,
        np.asarray(t.loaded.training_labels),
        np.asarray(out.test.samples),
        np.asarray(out.test.labels),
        {rule: r.confusion for rule, r in t.results.items()},
    )
    return fails


def _check_solves(name, records) -> list[str]:
    """Every logged solve: PSD, and objective, gap and violation recomputed."""
    fails = []
    for i, rec in enumerate(records):
        p = rec.problem
        fails += checks.solve_certificate(
            f"{name} solve {i}",
            np.asarray(p.intra),
            np.asarray(p.extra_scatter.entries),
            p.lam,
            p.margin,
            rec.result.matrix.entries,
            rec.result.dual.values,
            rec.result.report,
        )
    return fails


def _unconverged(records) -> int:
    return sum(1 for r in records if not r.result.report.converged)


class _Files:
    def __init__(self, workdir: Path) -> None:
        self.train_csv = workdir / "train.csv"
        self.test_csv = workdir / "test.csv"
        self.model = workdir / "model.dqml"


class _CsvWorkload:
    """Set-up writes the training and held-out CSVs that a round reads."""

    classes: int
    dim: int
    held_out_per_class: int

    def setup(self, seed: int, workdir: Path) -> _Files:
        files = _Files(workdir)
        datasets.save_csv(_reference_train(self.classes, self.dim), files.train_csv)
        datasets.save_csv(
            _held_out(self.classes, self.dim, self.held_out_per_class, seed), files.test_csv
        )
        return files


class ProtocolCv(_CsvWorkload):
    """Acceptance-8 shape: 3 classes, m=10, 20 per class to train.

    One round is one repetition of the protocol: read the data, 10-fold CV
    over the 5-value grid, final training at the chosen value, write and read
    the model, both rules on 50 held-out samples per class.
    """

    name = "protocol-cv"
    classes, dim, held_out_per_class = 3, 10, 50

    def run_round(self, files: _Files) -> RoundOutput:
        train, _ = datasets.load_csv(files.train_csv)
        test, _ = datasets.load_csv(files.test_csv)
        lam, entries = pipeline.cross_validate_lambda(
            train, GRID, folds=FOLDS, seed=REFERENCE_SEED
        )
        return RoundOutput(
            train, test, [_final(train, test, lam, files.model)], cv=(lam, entries)
        )

    def check(self, files: _Files, out: RoundOutput) -> list[str]:
        lam, entries = out.cv
        fails = checks.lambda_choice(GRID, [e.fold_errors for e in entries], lam)
        fails += _check_solves(self.name, out.solves)
        fails += _check_trained(self.name, out.trained[0], out)
        return fails

    def operations(self, files: _Files, out: RoundOutput) -> tuple[int, int]:
        """Solves plus classified samples (CV validations and both rules).

        Every class has at least FOLDS training samples, so CV validates each
        training sample once per grid value.
        """
        validated = PER_CLASS_TRAIN * self.classes * len(GRID)
        tested = self.classes * self.held_out_per_class * len(RULES)
        return len(out.solves) + validated + tested, _unconverged(out.solves)


class WideClasses(_CsvWorkload):
    """10 classes, m=64, 20 per class to train; final training at 2 grid values.

    No CV: each value is trained, its model written and read, and both rules
    run on 50 held-out samples per class. A 64x64 eigh is most of an
    evaluation's cost here.
    """

    name = "wide-classes"
    classes, dim, held_out_per_class = 10, 64, 50
    lams = (0.1, 1.0)

    def run_round(self, files: _Files) -> RoundOutput:
        train, _ = datasets.load_csv(files.train_csv)
        test, _ = datasets.load_csv(files.test_csv)
        return RoundOutput(
            train, test, [_final(train, test, lam, files.model) for lam in self.lams]
        )

    def check(self, files: _Files, out: RoundOutput) -> list[str]:
        fails = []
        for t in out.trained:
            fails += _check_trained(f"{self.name} lambda={t.lam}", t, out)
        return fails

    def operations(self, files: _Files, out: RoundOutput) -> tuple[int, int]:
        tested = self.classes * self.held_out_per_class * len(RULES) * len(self.lams)
        return len(out.solves) + tested, _unconverged(out.solves)


@dataclass
class _BulkState:
    files: _Files
    model: object  # the model as fitted in set-up
    train: object


class ClassifyBulk:
    """The ``dqml eval --model --data`` path on 21,000 held-out samples.

    Set-up fits the protocol-cv model (the same data and the value its CV
    selects) and writes it with the samples' CSV. A round reads the model and
    the CSV and runs both rules; it makes no solver call.
    """

    name = "classify-bulk"
    classes, dim, held_out_per_class = 3, 10, 7000
    lam = 0.1  # what protocol-cv's cross-validation selects on the same data

    def setup(self, seed: int, workdir: Path):
        files = _Files(workdir)
        train = _reference_train(self.classes, self.dim)
        model = pipeline.train_model_set(train, self.lam)
        pipeline.save_model(model, files.model)
        datasets.save_csv(
            _held_out(self.classes, self.dim, self.held_out_per_class, seed), files.test_csv
        )
        return _BulkState(files, model, train)

    def run_round(self, state: _BulkState) -> RoundOutput:
        loaded = pipeline.load_model(state.files.model)
        test, _ = datasets.load_csv(state.files.test_csv)
        results = {rule: pipeline.evaluate(loaded, test, rule) for rule in RULES}
        return RoundOutput(state.train, test, [Trained(self.lam, state.model, loaded, results)])

    def check(self, state: _BulkState, out: RoundOutput) -> list[str]:
        return _check_trained(self.name, out.trained[0], out)

    def operations(self, state: _BulkState, out: RoundOutput) -> tuple[int, int]:
        return self.classes * self.held_out_per_class * len(RULES), 0


WORKLOADS = {w.name: w for w in (ProtocolCv(), WideClasses(), ClassifyBulk())}
