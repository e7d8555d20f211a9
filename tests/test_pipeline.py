"""Training pipeline tests: per-class problems, feature extraction, both
classification rules, cross-validation, and the model file round trip."""

import errno
import os
import struct
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest

from dqml import pipeline
from dqml.datasets import SynthSpec, generate_synthetic, save_csv, write_sidecar
from dqml.errors import (
    DegenerateFeatureError,
    InfeasibleProblemError,
    InvalidInputError,
    ModelChecksumError,
    ModelFormatError,
    ModelTruncatedError,
    ModelVersionError,
)
from dqml.pipeline import (
    CvEntry,
    Dataset,
    FeatureVector,
    ModelSet,
    build_class_problem,
    classify_max,
    classify_nn_cosine,
    cross_validate_lambda,
    _feature_matrix,
    _nn_cosine_labels,
    evaluate,
    extract_features,
    load_model,
    save_model,
    train_model_set,
)
from dqml.qml import TrainedQuadraticMatrix, solve_dual
from dqml.symmat import SymmetricMatrix

from conftest import reference_train


def toy_dataset():
    return Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1, 2]))


def gaussian_dataset(seed=0, per_class=8, dim=4, classes=3, sep=6.0):
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for k in range(classes):
        mean = np.zeros(dim)
        mean[k] = sep
        rows.append(mean + rng.normal(size=(per_class, dim)))
        labels.extend([k + 1] * per_class)
    return Dataset(np.vstack(rows), np.array(labels))


def identity_model(classes=2, dim=2):
    mats = tuple(
        TrainedQuadraticMatrix(SymmetricMatrix(np.eye(dim)), None, None)
        for _ in range(classes)
    )
    feats = np.eye(classes) + 0.5
    return ModelSet(mats, 1.0, feats, np.arange(1, classes + 1))


def zero_model(classes=3, dim=2):
    """A model whose every class matrix, and so every training feature, is zero."""
    mats = tuple(
        TrainedQuadraticMatrix(SymmetricMatrix(np.zeros((dim, dim))), None, None)
        for _ in range(classes)
    )
    return ModelSet(mats, 1.0, np.zeros((classes, classes)), np.arange(1, classes + 1))


def write_version(writer, path, version):
    """Write version 0 or 1 of a file with one of dqml's writers; return its path."""
    if writer == "save_model":
        model = identity_model() if version == 0 else train_model_set(toy_dataset(), lam=0.3)
        save_model(model, path)
    elif writer == "save_csv":
        save_csv(gaussian_dataset(seed=version, per_class=200), path)
    else:
        return write_sidecar(path, {"seed": version, "classes": 3})
    return path


class TestDataset:
    def test_basic(self):
        ds = toy_dataset()
        assert ds.n == 2 and ds.dim == 2 and ds.class_count == 2

    def test_accepts_missing_classes(self):
        # A test set may lack a class; training on it is refused, naming it.
        ds = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1, 3]))
        assert ds.class_count == 3
        with pytest.raises(InvalidInputError, match="class 2 has no training sample"):
            train_model_set(ds, lam=1.0)

    def test_rejects_zero_label(self):
        with pytest.raises(InvalidInputError, match="positive"):
            Dataset(np.zeros((2, 2)), np.array([0, 1]))

    def test_rejects_float_labels(self):
        with pytest.raises(InvalidInputError, match="integer"):
            Dataset(np.zeros((2, 2)), np.array([1.0, 2.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.zeros((2, 2)), np.array([1, 2, 2]))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.array([[np.nan, 0.0]]), np.array([1]))


class TestBuildClassProblem:
    def test_two_class_toy(self):
        prob = build_class_problem(toy_dataset(), 1, lam=1.0)
        assert np.array_equal(prob.intra, [[1.0, 0.0]])
        assert np.allclose(prob.extra_scatter.entries, [[0.0, 0.0], [0.0, 1.0]])
        assert prob.margin == 1.0

    def test_out_of_range(self):
        with pytest.raises(InvalidInputError, match="out of range"):
            build_class_problem(toy_dataset(), 3, lam=1.0)
        with pytest.raises(InvalidInputError, match="out of range"):
            build_class_problem(toy_dataset(), 0, lam=1.0)

    def test_single_class_has_zero_scatter(self):
        ds = Dataset(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1, 1]))
        prob = build_class_problem(ds, 1, lam=1.0)
        assert np.all(prob.extra_scatter.entries == 0.0)


class TestTrainModelSet:
    def test_toy_model_structure(self):
        model = train_model_set(toy_dataset(), lam=0.1)
        # Each class needs x^T P x = 1 on its own axis and pays for any mass
        # on the other axis, so the optima are the axis projectors.
        assert np.allclose(model.matrices[0].matrix.entries, [[1, 0], [0, 0]], atol=1e-6)
        assert np.allclose(model.matrices[1].matrix.entries, [[0, 0], [0, 1]], atol=1e-6)
        assert np.allclose(model.training_features, np.eye(2), atol=1e-6)

    def test_intra_constraints_hold_on_training_set(self):
        ds = gaussian_dataset()
        model = train_model_set(ds, lam=1.0)
        f = model.training_features
        for c in range(1, ds.class_count + 1):
            own = f[c - 1, ds.labels == c]
            assert np.all(own >= 1.0 - 1e-4)
        assert np.all(f >= -1e-8)

    def test_infeasible_class_is_named(self):
        ds = Dataset(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([1, 2]))
        with pytest.raises(InfeasibleProblemError, match="class 2"):
            train_model_set(ds, lam=1.0)

    def test_training_is_deterministic(self):
        ds = gaussian_dataset(seed=5)
        a = train_model_set(ds, lam=0.3)
        b = train_model_set(ds, lam=0.3)
        for ta, tb in zip(a.matrices, b.matrices):
            assert np.array_equal(ta.matrix.entries, tb.matrix.entries)

    def test_per_class_independence_under_extra_permutation(self):
        ds = gaussian_dataset(seed=7, per_class=6, classes=3)
        base = train_model_set(ds, lam=1.0).matrices[0].matrix.entries

        rng = np.random.default_rng(0)
        others = np.flatnonzero(ds.labels != 1)
        perm = np.arange(ds.n)
        perm[others] = others[rng.permutation(others.size)]
        shuffled = Dataset(ds.samples[perm], ds.labels[perm])
        again = train_model_set(shuffled, lam=1.0).matrices[0].matrix.entries
        assert np.array_equal(base, again)

    @pytest.mark.xfail(
        strict=True,
        reason="projected L-BFGS stalls above grad_tol on unnormalised, clustered "
        "classes (ROADMAP item 2b)",
    )
    def test_converges_on_acceptance_8_reference_split(self):
        # Repetition 0 of acceptance test 8's data at the grid's largest lambda.
        model = train_model_set(reference_train(), lam=10.0)
        assert [t.report.converged for t in model.matrices] == [True] * 3

    @pytest.mark.xfail(
        strict=True,
        reason="projected L-BFGS ends every class at max_iterations with P = 0 once "
        "the samples are scaled by 10 (ROADMAP item 9)",
    )
    def test_converges_on_reference_split_scaled_by_ten(self):
        # Scaling the samples by s gives the unit-scale problem at lam * s^4,
        # here lam = 1000.
        ds = reference_train()
        model = train_model_set(Dataset(10.0 * ds.samples, ds.labels), lam=0.1)
        assert [t.report.converged for t in model.matrices] == [True] * 3
        assert not any((t.matrix.entries == 0.0).all() for t in model.matrices)


class TestFeatures:
    def test_zero_sample_gives_zero_features(self):
        f = extract_features(identity_model(), np.zeros(2))
        assert np.all(f.values == 0.0)

    def test_identity_matrices_give_squared_norm(self):
        f = extract_features(identity_model(), np.array([3.0, 4.0]))
        assert np.allclose(f.values, [25.0, 25.0])

    def test_quadratic_homogeneity(self):
        model = train_model_set(toy_dataset(), lam=0.5)
        x = np.array([0.7, -0.2])
        f1 = extract_features(model, x).values
        f2 = extract_features(model, 2.0 * x).values
        assert np.allclose(f2, 4.0 * f1)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            extract_features(identity_model(), np.zeros(3))

    def test_all_zero_model_refused(self):
        with pytest.raises(DegenerateFeatureError, match="every class matrix is zero"):
            extract_features(zero_model(), np.array([1.0, 2.0]))

    def test_non_finite_sample_refused(self):
        with pytest.raises(InvalidInputError, match="sample has non-finite entries"):
            extract_features(identity_model(), np.array([1.0, np.nan]))

    def test_feature_vector_must_be_1d(self):
        with pytest.raises(InvalidInputError, match="must be 1-d and nonempty"):
            FeatureVector(np.ones((2, 2)))

    def test_feature_vector_rejects_large_negative(self):
        with pytest.raises(InvalidInputError, match="PSD floor"):
            FeatureVector(np.array([0.5, -1e-6]))


class TestClassifyMax:
    def test_picks_largest(self):
        assert classify_max(FeatureVector(np.array([0.2, 1.5, 0.3]))) == 2

    def test_tie_goes_to_smaller_class(self):
        assert classify_max(FeatureVector(np.array([1.0, 1.0]))) == 1

    def test_scale_invariant(self):
        f = FeatureVector(np.array([0.1, 0.9, 0.4]))
        g = FeatureVector(f.values * 7.5)
        assert classify_max(f) == classify_max(g)


class TestClassifyNnCosine:
    def test_exact_training_column_wins(self):
        model = identity_model(classes=3)
        col = model.training_features[:, 1].copy()
        assert classify_nn_cosine(FeatureVector(col), model) == 2

    def test_scale_invariance_of_query(self):
        model = identity_model(classes=3)
        col = model.training_features[:, 2].copy()
        assert classify_nn_cosine(FeatureVector(3.0 * col), model) == 3

    def test_toy_two_class_example(self):
        model = train_model_set(toy_dataset(), lam=0.1)
        f = extract_features(model, np.array([0.9, 0.1]))
        assert classify_nn_cosine(f, model) == 1

    def test_zero_query_rejected(self):
        with pytest.raises(DegenerateFeatureError, match="zero norm"):
            classify_nn_cosine(FeatureVector(np.zeros(2)), identity_model())

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidInputError, match="has 3 components, model has 2 classes"):
            classify_nn_cosine(FeatureVector(np.ones(3)), identity_model())

    def test_zero_norm_training_column_cannot_win(self):
        mats = tuple(
            TrainedQuadraticMatrix(SymmetricMatrix(np.eye(2)), None, None)
            for _ in range(2)
        )
        feats = np.array([[0.0, 1.0], [0.0, 0.2]])
        model = ModelSet(mats, 1.0, feats, np.array([1, 2]))
        f = FeatureVector(np.array([1.0, 0.0]))
        assert classify_nn_cosine(f, model) == 2


def cosine_reference(f, model):
    """The cosine rule in one shot, with one (n, n_train) array for all rows."""
    t = model.training_features
    qn = np.linalg.norm(f, axis=1)
    col_norms = np.linalg.norm(t, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (f @ t) / (qn[:, None] * col_norms)
    cos[:, col_norms == 0.0] = -np.inf
    return model.training_labels[np.argmax(cos, axis=1)]


class TestNnCosineBlocks:
    N_TRAIN = 64
    BLOCK = max(1, 32768 // N_TRAIN)

    def model(self):
        rng = np.random.default_rng(40)
        mats = tuple(
            TrainedQuadraticMatrix(SymmetricMatrix(np.eye(2)), None, None)
            for _ in range(4)
        )
        feats = rng.uniform(0.0, 1.0, size=(4, self.N_TRAIN))
        feats[:, 5] = 0.0
        feats[:, 11] = feats[:, 10]
        labels = rng.integers(1, 5, size=self.N_TRAIN)
        labels[10], labels[11] = 1, 2
        return ModelSet(mats, 1.0, feats, labels)

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)],
                             ids=["1", "block-1", "block", "block+1", "3*block+7"])
    def test_matches_one_shot_reference(self, blocks, extra):
        # _nn_cosine_labels scores max(1, 32768 // n_train) rows at a time;
        # these row counts put the last row on each side of a block boundary.
        model = self.model()
        n = blocks * self.BLOCK + extra
        f = np.random.default_rng([41, n]).uniform(0.0, 1.0, size=(n, 4))
        # Every third row points along training columns 10 and 11, an exact
        # tie that the first of the two wins.
        f[::3] = 2.5 * model.training_features[:, 10]
        got = _nn_cosine_labels(f, model)
        assert np.array_equal(got, cosine_reference(f, model))
        assert np.all(got[::3] == 1)


class TestCrossValidation:
    def test_single_value_grid(self):
        ds = gaussian_dataset(per_class=6)
        lam, table = cross_validate_lambda(ds, [0.7], folds=2, seed=1)
        assert lam == 0.7
        assert len(table) == 1

    def test_ties_prefer_smaller_lambda(self):
        ds = gaussian_dataset(per_class=8)
        lam, table = cross_validate_lambda(ds, [3.0, 0.1, 1.0], folds=2, seed=0)
        # Perfectly separated classes: every lambda gets zero error.
        assert all(e.mean_error == 0.0 for e in table)
        assert lam == 0.1

    def test_rejects_bad_grid(self):
        ds = gaussian_dataset(per_class=4)
        with pytest.raises(InvalidInputError):
            cross_validate_lambda(ds, [], folds=2)
        with pytest.raises(InvalidInputError):
            cross_validate_lambda(ds, [0.0, 1.0], folds=2)
        with pytest.raises(InvalidInputError):
            cross_validate_lambda(ds, [1.0], folds=1)
        with pytest.raises(InvalidInputError, match="repeats a value"):
            cross_validate_lambda(ds, [0.3, 1, 1.0], folds=2)
        for folds in (2.5, True, np.float64(2.0)):
            with pytest.raises(InvalidInputError, match="folds must be an integer"):
                cross_validate_lambda(ds, [1.0], folds=folds)
        for seed in (-1, 0.5, True):
            with pytest.raises(InvalidInputError, match="seed must be a non-negative integer"):
                cross_validate_lambda(ds, [1.0], folds=3, seed=seed)
        lam, _ = cross_validate_lambda(ds, [1.0], folds=np.int64(2), seed=np.uint8(3))
        assert lam == 1.0

    def test_all_classes_too_small(self):
        ds = gaussian_dataset(per_class=3)
        # The huge fold count must be rejected before any per-fold allocation.
        for folds in (10, 10**12):
            with pytest.raises(InvalidInputError, match="nothing can be validated"):
                cross_validate_lambda(ds, [1.0], folds=folds)

    def test_deterministic_given_seed(self):
        ds = gaussian_dataset(per_class=6)
        a = cross_validate_lambda(ds, [0.1, 1.0], folds=3, seed=9)
        b = cross_validate_lambda(ds, [0.1, 1.0], folds=3, seed=9)
        assert a == b

    def test_small_class_stays_in_training(self):
        # Class 3 has 2 samples < 3 folds: it is trained on but never
        # validated, so validation still works for the big classes. The table
        # is pinned, so moving one sample to another fold shows here.
        rng = np.random.default_rng(2)
        big = [rng.normal(size=(6, 3)) + 5 * np.eye(3)[k] for k in range(2)]
        small = rng.normal(size=(2, 3)) + 5 * np.array([1, 1, 1]) / np.sqrt(3)
        ds = Dataset(
            np.vstack(big + [small]),
            np.array([1] * 6 + [2] * 6 + [3] * 2),
        )
        lam, table = cross_validate_lambda(ds, [1.0], folds=3, seed=0)
        assert (lam, table) == (1.0, (CvEntry(lam=1.0, mean_error=0.25,
                                               fold_errors=(0.25, 0.0, 0.5), unconverged=2,
                                               worst_grad_inf_norm=1.1362579694251806e-05),))
        assert all(type(e) is float for e in table[0].fold_errors)

    def test_entries_count_their_unconverged_fold_solves(self, monkeypatch):
        # Acceptance test 8's reference split and grid, where some fold
        # solves stop short of the tolerance.
        train = reference_train()
        grid = (0.1, 0.3, 1.0, 3.0, 10.0)
        log = []

        def logged(problem):
            trained = solve_dual(problem)
            log.append((problem.lam, trained.report))
            return trained

        monkeypatch.setattr(pipeline, "solve_dual", logged)
        _, table = cross_validate_lambda(train, grid, folds=10, seed=42)
        assert len(log) == len(grid) * 10 * 3
        assert [e.lam for e in table] == list(grid)
        assert table[0] == CvEntry(lam=0.1, mean_error=0.0, fold_errors=(0.0,) * 10,
                                   unconverged=5, worst_grad_inf_norm=4.606208459101424e-07)
        assert all(type(e) is float for entry in table for e in entry.fold_errors)
        for entry in table:
            reports = [r for lam, r in log if lam == entry.lam]
            assert len(reports) == 30
            assert entry.unconverged == sum(not r.converged for r in reports)
            assert entry.worst_grad_inf_norm == max(r.grad_inf_norm for r in reports)


class TestEvaluate:
    def test_perfect_on_training_set(self):
        ds = gaussian_dataset()
        model = train_model_set(ds, lam=1.0)
        for rule in ("max", "nn_cosine"):
            res = evaluate(model, ds, rule)
            assert res.error_rate == 0.0
            assert res.confusion.sum() == ds.n
            assert np.all(res.confusion == np.diag(np.diag(res.confusion)))

    def test_adversarial_labels_score_one(self):
        ds = toy_dataset()
        model = train_model_set(ds, lam=0.1)
        flipped = Dataset(ds.samples, np.array([2, 1]))
        assert evaluate(model, flipped, "max").error_rate == 1.0

    def test_single_correct_sample(self):
        model = train_model_set(toy_dataset(), lam=0.1)
        one = Dataset(np.array([[1.0, 0.05]]), np.array([1]))
        assert evaluate(model, one, "max").error_rate == 0.0

    @pytest.mark.parametrize("rule", ["max", "nn_cosine"])
    def test_all_zero_model_refused(self, rule):
        # Every feature would be 0: the max rule would pick class 1 for every
        # sample and report chance error.
        with pytest.raises(DegenerateFeatureError, match="every class matrix is zero"):
            evaluate(zero_model(dim=3), gaussian_dataset(dim=3), rule)

    def test_unknown_rule(self):
        model = train_model_set(toy_dataset(), lam=0.1)
        with pytest.raises(InvalidInputError, match="rule"):
            evaluate(model, toy_dataset(), "cosine")

    def test_labels_past_the_model_refused(self):
        model = train_model_set(toy_dataset(), lam=0.1)
        past = Dataset(np.ones((2, 2)), np.array([1, 3]))
        with pytest.raises(InvalidInputError, match="test labels reach class 3, model has 2"):
            evaluate(model, past, "max")

    def test_dimension_mismatch(self):
        model = train_model_set(toy_dataset(), lam=0.1)
        bad = Dataset(np.ones((2, 3)), np.array([1, 2]))
        with pytest.raises(InvalidInputError):
            evaluate(model, bad, "max")

    @pytest.mark.parametrize("rule", ["max", "nn_cosine"])
    def test_non_psd_model_rejected(self, rule):
        mats = (
            TrainedQuadraticMatrix(SymmetricMatrix(np.eye(2)), None, None),
            TrainedQuadraticMatrix(SymmetricMatrix(np.diag([1.0, -1.0])), None, None),
        )
        model = ModelSet(mats, 1.0, np.eye(2) + 0.5, np.array([1, 2]))
        with pytest.raises(InvalidInputError, match="PSD floor"):
            evaluate(model, toy_dataset(), rule)

    # A single sample's features come from gemv, a batch's from gemm.
    @pytest.mark.parametrize("dim", [4, 64])
    def test_batched_rules_match_single_sample_calls(self, dim):
        train = generate_synthetic(SynthSpec(3, dim, 12, 2.0, 1.0, seed=11))
        test = generate_synthetic(SynthSpec(3, dim, 40, 2.0, 1.0, seed=12))
        model = train_model_set(train, lam=0.3)
        rules = {
            "max": classify_max,
            "nn_cosine": lambda f: classify_nn_cosine(f, model),
        }
        for rule, classify in rules.items():
            want = np.zeros((3, 3), dtype=np.int64)
            for x, y in zip(test.samples, test.labels):
                want[y - 1, classify(extract_features(model, x)) - 1] += 1
            res = evaluate(model, test, rule)
            assert np.array_equal(res.confusion, want)
            assert res.error_rate == (test.n - np.trace(want)) / test.n
            # Misclassified samples make the comparison cover more than the diagonal.
            assert np.trace(want) < test.n


    @pytest.mark.parametrize("rule", ["max", "nn_cosine"])
    def test_confusion_matches_add_at_reference(self, rule):
        # Class c's matrix is e_c e_c^T, so feature c is x_c^2. No sample has
        # a third coordinate and no training feature is labelled 3, so no
        # sample is predicted as class 3; no test label is 4.
        mats = tuple(
            TrainedQuadraticMatrix(SymmetricMatrix(np.diag(np.eye(4)[c])), None, None)
            for c in range(4)
        )
        rng = np.random.default_rng(43)
        train_labels = rng.choice([1, 2, 4], size=30)
        model = ModelSet(mats, 1.0, rng.uniform(0.0, 1.0, size=(4, 30)), train_labels)
        x = rng.normal(size=(300, 4))
        x[:, 2] = 0.0
        test = Dataset(x, rng.integers(1, 4, size=300))
        f = _feature_matrix(model.matrices, test.samples)
        pred = np.argmax(f, axis=1) + 1 if rule == "max" else cosine_reference(f, model)
        want = np.zeros((4, 4), dtype=np.int64)
        np.add.at(want, (test.labels - 1, pred - 1), 1)
        res = evaluate(model, test, rule)
        assert res.confusion.dtype == np.int64
        assert np.array_equal(res.confusion, want)
        assert not want[:, 2].any() and not want[3].any() and want[:, 3].any()
        assert res.error_rate == (test.n - np.trace(want)) / test.n

    def test_cosine_memory_is_bounded_by_the_block(self):
        # The one-shot rule builds three (50,000, 60) float arrays here and
        # peaks at about 47 MiB; in blocks the features dominate, about 5 MiB.
        model = train_model_set(gaussian_dataset(per_class=20, dim=10), lam=0.1)
        assert model.training_labels.size == 60
        rng = np.random.default_rng(44)
        test = Dataset(rng.normal(size=(50_000, 10)), np.arange(50_000) % 3 + 1)
        tracemalloc.start()
        try:
            evaluate(model, test, "nn_cosine")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


class TestModelFile:
    def trained(self):
        return train_model_set(gaussian_dataset(seed=4, per_class=5), lam=0.3)

    def test_round_trip_is_bit_exact(self, tmp_path):
        model = replace(self.trained(), class_labels=(3, 7, 10))
        path = tmp_path / "model.dqml"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.lam == model.lam
        assert loaded.class_count == model.class_count
        for a, b in zip(model.matrices, loaded.matrices):
            assert np.array_equal(a.matrix.entries, b.matrix.entries)
        assert np.array_equal(loaded.training_features, model.training_features)
        assert np.array_equal(loaded.training_labels, model.training_labels)
        assert loaded.matrices[0].report is None
        assert loaded.matrices[0].dual is None
        assert loaded.class_labels == (3, 7, 10)
        assert loaded.summaries == model.summaries
        assert [(s["termination"], s["evaluations"]) for s in loaded.summaries] == [
            (t.report.termination, t.report.objective_evals) for t in model.matrices
        ]
        # A model built without summaries reads back without them.
        save_model(identity_model(), path)
        assert load_model(path).summaries is None
        assert load_model(path).class_labels == (1, 2)

    @pytest.mark.parametrize("writer", ["save_model", "save_csv", "write_sidecar"])
    def test_failed_write_keeps_the_old_file(self, writer, tmp_path, monkeypatch):
        target = write_version(writer, tmp_path / "f", 0)
        old = target.read_bytes()

        class HalfWriter:
            """A file whose first write stores half its bytes, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(pipeline, "open", lambda *a: HalfWriter(open(*a)), raising=False)
        with pytest.raises(OSError, match="No space left"):
            write_version(writer, tmp_path / "f", 1)
        assert target.read_bytes() == old
        assert list(tmp_path.iterdir()) == [target]
        monkeypatch.undo()
        write_version(writer, tmp_path / "f", 1)
        assert target.read_bytes() != old
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("writer", ["save_model", "save_csv", "write_sidecar"])
    def test_failed_write_names_the_target(self, writer, tmp_path):
        # The error names the file asked for, not the temporary file beside it.
        target = tmp_path / "missing" / ("f.meta" if writer == "write_sidecar" else "f")
        with pytest.raises(FileNotFoundError) as info:
            write_version(writer, tmp_path / "missing" / "f", 1)
        assert info.value.filename == str(target)
        assert ".tmp" not in str(info.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.dqml"
        save_model(self.trained(), path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_future_version(self, tmp_path):
        model = self.trained()
        path = tmp_path / "m.dqml"
        save_model(model, path)
        blob = path.read_bytes()
        # A version 1 file, which earlier builds wrote, is the version 2 layout
        # without the class labels and summaries that precede the CRC32. It is
        # refused like a version from the future, even with a valid checksum.
        v1 = b"DQML" + struct.pack("<I", 1) + blob[8 : -4 - 44 * model.class_count]
        for version, payload in ((99, blob[:4] + struct.pack("<I", 99) + blob[8:]),
                                 (1, v1 + struct.pack("<I", zlib.crc32(v1)))):
            path.write_bytes(payload)
            with pytest.raises(ModelVersionError, match=rf"version {version} is not supported "
                               r"\(this build reads version 2\); re-train"):
                load_model(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "m.dqml"
        save_model(self.trained(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(ModelTruncatedError):
            load_model(path)

    def test_corrupted_payload(self, tmp_path):
        path = tmp_path / "m.dqml"
        save_model(self.trained(), path)
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelChecksumError):
            load_model(path)

    def test_nonfinite_training_feature(self, tmp_path):
        model = self.trained()
        path = tmp_path / "m.dqml"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        # The first training feature follows the header, the class matrices
        # and the sample count; the CRC32 trailer is recomputed to match.
        offset = 24 + 8 * model.dim**2 * model.class_count + 4
        struct.pack_into("<d", blob, offset, float("nan"))
        struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[:-4]) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(InvalidInputError, match="non-finite"):
            load_model(path)

    @pytest.mark.parametrize(
        "cut, field, error, match",
        [
            (6, None, ModelTruncatedError, "inside the header"),
            (12, None, ModelTruncatedError, "inside the header"),
            (None, 8, ModelFormatError, "m=0"),
            (None, 12, ModelFormatError, "C=0"),
            (24 + 8, None, ModelTruncatedError, "inside the matrix payload"),
        ],
        ids=["before-version", "after-version", "m-zero", "c-zero", "inside-matrices"],
    )
    def test_header_and_payload_refusals(self, tmp_path, cut, field, error, match):
        path = tmp_path / "m.dqml"
        save_model(self.trained(), path)
        blob = bytearray(path.read_bytes())
        if field is not None:
            # Zero one header count (m at byte 8, C at 12); the CRC32 trailer
            # is recomputed so only the header is wrong.
            struct.pack_into("<I", blob, field, 0)
            struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[:-4]) & 0xFFFFFFFF)
        if cut is not None:
            blob = blob[:cut]
        path.write_bytes(bytes(blob))
        with pytest.raises(error, match=match):
            load_model(path)

    @pytest.mark.parametrize("with_summaries", [True, False], ids=["summaries", "none"])
    def test_version_2_bytes_match_the_layout(self, tmp_path, with_summaries):
        model = replace(self.trained(), class_labels=(3, 7, 10), summaries=None)
        # (termination, its code, iterations, evaluations, grad_inf_norm,
        # duality_gap, max_violation) of each class.
        rows = [("converged", 1, 17, 21, 3e-8, -1.5e-9, 0.0),
                ("max_iterations", 2, 500, 1234, 2.5e-3, 4e-4, 1e-6),
                ("line_search_failed", 3, 88, 301, 1e-5, 2e-7, 3.25e-9)]
        summary_bytes = bytes(36 * 3)  # no summaries: an all-zero block
        if with_summaries:
            names = ("termination", "iterations", "evaluations",
                     "grad_inf_norm", "duality_gap", "max_violation")
            summaries = tuple(dict(zip(names, (r[0], *r[2:]))) for r in rows)
            model = replace(model, summaries=summaries)
            summary_bytes = b"".join(
                struct.pack("<III", *r[1:4]) + struct.pack("<ddd", *r[4:]) for r in rows
            )
        m, c, n = model.dim, model.class_count, model.training_labels.size
        payload = b"".join([
            b"DQML", struct.pack("<IIId", 2, m, c, model.lam),
            *(t.matrix.entries.astype("<f8").tobytes() for t in model.matrices),
            struct.pack("<I", n), model.training_features.astype("<f8").tobytes(),
            model.training_labels.astype("<u4").tobytes(),
            struct.pack("<3q", 3, 7, 10), summary_bytes,
        ])
        path = tmp_path / "v2.dqml"
        save_model(model, path)
        assert path.read_bytes() == payload + struct.pack("<I", zlib.crc32(payload))
        assert load_model(path).summaries == model.summaries

    def test_unknown_termination_code(self, tmp_path):
        model = self.trained()
        path = tmp_path / "m.dqml"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        # The last class summary's termination code sits 36 bytes before the CRC32.
        struct.pack_into("<I", blob, len(blob) - 4 - 36, 4)
        struct.pack_into("<I", blob, len(blob) - 4, zlib.crc32(blob[:-4]) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="termination code"):
            load_model(path)

    def test_class_labels_are_checked(self):
        model = identity_model()
        args = (model.matrices, 1.0, model.training_features, model.training_labels)
        for labels in ((3, 3), (1,), (0, 1), (1, 2**63), (), (5.5, 7.9), np.array([5.5, 7.0]),
                       (True, 2)):
            with pytest.raises(InvalidInputError, match="class labels must be 2 distinct integers"):
                ModelSet(*args, labels)
        ModelSet(*args, (1, 2**63 - 1))  # the largest label a model file holds
        assert ModelSet(*args, np.array([5, 7])).class_labels == (5, 7)
        with pytest.raises(InvalidInputError, match="solve summaries"):
            ModelSet(*args, (1, 2), ({},))

    @pytest.mark.parametrize("change, match", [
        ({"matrices": ()}, "at least one class matrix"),
        ({"matrices": identity_model(dim=3).matrices[:1] + identity_model().matrices[:1]},
         r"disagree on dimension: \[2, 3\]"),
        ({"lam": 0.0}, "lam must be positive and finite"),
        ({"lam": float("nan")}, "lam must be positive and finite"),
        ({"training_features": np.ones((3, 2))}, r"must be \(classes, samples\)"),
        ({"training_labels": np.array([1, 2, 2])}, "one training label per feature column"),
        ({"training_labels": np.array([1.0, 2.0])}, "training labels must be integers"),
        ({"training_labels": np.array([1, 3])}, "training labels out of class range"),
    ], ids=["no_matrices", "two_dimensions", "zero_lam", "nan_lam", "features_not_c_by_n",
            "label_count", "float_labels", "label_past_c"])
    def test_bad_fields_are_refused(self, change, match):
        with pytest.raises(InvalidInputError, match=match):
            replace(identity_model(), **change)

    @pytest.mark.parametrize("change, match", [
        ({"iterations": None}, "class 2: .*KeyError"),
        ({"termination": "diverged"}, "class 2: .*diverged"),
        ({"evaluations": 2**32}, "class 2: .*Overflow"),
        ({"iterations": -1}, "class 2: .*Overflow"),
        ({"iterations": 3.7}, "class 2: .*iterations must be an integer"),
        ({"iterations": True}, "class 2: .*iterations must be an integer"),
        ({"grad_inf_norm": "1e-3"}, "class 2: .*grad_inf_norm must be a real number"),
    ], ids=["missing_key", "unknown_termination", "count_over_u32", "negative_count",
            "float_count", "bool_count", "string_float"])
    def test_summaries_the_file_cannot_hold_are_refused(self, change, match):
        model = self.trained()
        # Class 2's summary with the change applied; None drops the key.
        bad = {k: v for k, v in {**model.summaries[1], **change}.items() if v is not None}
        summaries = (model.summaries[0], bad, model.summaries[2])
        with pytest.raises(InvalidInputError, match=match):
            replace(model, summaries=summaries)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "m.dqml"
        save_model(self.trained(), path)
        path.write_bytes(path.read_bytes() + b"??")
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(path)
