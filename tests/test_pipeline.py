"""Training pipeline tests: per-class problems, feature extraction, both
classification rules, cross-validation, and the model file round trip."""

import struct
import zlib

import numpy as np
import pytest

from dqml.datasets import SplitSpec, SynthSpec, generate_synthetic, split_random
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
    Dataset,
    FeatureVector,
    ModelSet,
    build_class_problem,
    classify_max,
    classify_nn_cosine,
    cross_validate_lambda,
    evaluate,
    extract_features,
    load_model,
    save_model,
    train_model_set,
)
from dqml.qml import TrainedQuadraticMatrix
from dqml.symmat import SymmetricMatrix


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


class TestDataset:
    def test_basic(self):
        ds = toy_dataset()
        assert ds.n == 2 and ds.dim == 2 and ds.class_count == 2

    def test_rejects_gap_in_labels(self):
        with pytest.raises(InvalidInputError, match="missing"):
            Dataset(np.zeros((2, 2)), np.array([1, 3]))

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
        "classes (ROADMAP item 2)",
    )
    def test_converges_on_acceptance_8_reference_split(self):
        # Repetition 0 of acceptance test 8's data at the grid's largest lambda.
        ds = generate_synthetic(SynthSpec(3, 10, 70, 6.0, 1.0, seed=42))
        train, _ = split_random(ds, SplitSpec(20, seed=42), 0)
        model = train_model_set(train, lam=10.0)
        assert [t.report.converged for t in model.matrices] == [True] * 3


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

    def test_zero_norm_training_column_cannot_win(self):
        mats = tuple(
            TrainedQuadraticMatrix(SymmetricMatrix(np.eye(2)), None, None)
            for _ in range(2)
        )
        feats = np.array([[0.0, 1.0], [0.0, 0.2]])
        model = ModelSet(mats, 1.0, feats, np.array([1, 2]))
        f = FeatureVector(np.array([1.0, 0.0]))
        assert classify_nn_cosine(f, model) == 2


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
        # validated, so validation still works for the big classes.
        rng = np.random.default_rng(2)
        big = [rng.normal(size=(6, 3)) + 5 * np.eye(3)[k] for k in range(2)]
        small = rng.normal(size=(2, 3)) + 5 * np.array([1, 1, 1]) / np.sqrt(3)
        ds = Dataset(
            np.vstack(big + [small]),
            np.array([1] * 6 + [2] * 6 + [3] * 2),
        )
        lam, table = cross_validate_lambda(ds, [1.0], folds=3, seed=0)
        assert lam == 1.0
        for entry in table:
            assert len(entry.fold_errors) == 3


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

    def test_unknown_rule(self):
        model = train_model_set(toy_dataset(), lam=0.1)
        with pytest.raises(InvalidInputError, match="rule"):
            evaluate(model, toy_dataset(), "cosine")

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


class TestModelFile:
    def trained(self):
        return train_model_set(gaussian_dataset(seed=4, per_class=5), lam=0.3)

    def test_round_trip_is_bit_exact(self, tmp_path):
        model = self.trained()
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

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.dqml"
        save_model(self.trained(), path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_future_version(self, tmp_path):
        path = tmp_path / "m.dqml"
        save_model(self.trained(), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelVersionError):
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

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "m.dqml"
        save_model(self.trained(), path)
        path.write_bytes(path.read_bytes() + b"??")
        with pytest.raises(ModelFormatError, match="trailing"):
            load_model(path)
