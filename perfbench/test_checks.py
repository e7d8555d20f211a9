"""Tests of the benchmark's correctness checks, with negative controls.

    python3 -m pytest perfbench

The checks must pass on dqml's real outputs and fail when a class matrix is
perturbed, labels are shuffled, or the wrong regularization value is chosen.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from dqml import SynthSpec, generate_synthetic, train_model_set  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def trained():
    ds = generate_synthetic(SynthSpec(3, 6, 15, 6.0, 1.0, seed=5))
    model = train_model_set(ds, 1.0)
    test = generate_synthetic(SynthSpec(3, 6, 40, 6.0, 1.0, seed=6))
    return ds, model, test


def _certificate(ds, model, c, p=None):
    x, y = ds.samples, ds.labels
    t = model.matrices[c - 1]
    return checks.solve_certificate(
        f"class {c}",
        x[y == c],
        checks.scatter_of_others(x, y, c),
        model.lam,
        1.0,
        t.matrix.entries if p is None else p,
        t.dual.values,
        t.report,
    )


def _classification(model, test, matrices=None, labels=None):
    from dqml import evaluate

    reported = {r: evaluate(model, test, r).confusion for r in workloads.RULES}
    return checks.classification(
        "test",
        matrices or [t.matrix.entries for t in model.matrices],
        model.training_features.T,
        model.training_labels,
        test.samples,
        test.labels if labels is None else labels,
        reported,
    )


def test_checks_pass_on_real_outputs(trained):
    ds, model, test = trained
    for c in (1, 2, 3):
        assert _certificate(ds, model, c) == []
    assert _classification(model, test) == []


def test_perturbed_matrix_fails_certificate(trained):
    ds, model, _ = trained
    p = model.matrices[0].matrix.entries.copy()
    p[0, 0] += 1e-3
    assert any("primal" in f for f in _certificate(ds, model, 1, p))
    shifted = p - 1.0 * np.eye(p.shape[0])
    assert any("min eigenvalue" in f for f in _certificate(ds, model, 1, shifted))


def test_swapped_matrices_fail_classification(trained):
    _, model, test = trained
    m = [t.matrix.entries for t in model.matrices]
    fails = _classification(model, test, matrices=[m[1], m[0], m[2]])
    assert any("confusion differs" in f for f in fails)


def test_shuffled_labels_fail_classification(trained):
    _, model, test = trained
    labels = np.random.default_rng(0).permutation(test.labels)
    fails = _classification(model, test, labels=labels)
    assert any("confusion differs" in f for f in fails)
    assert any("error" in f for f in fails)


def test_lambda_choice_takes_lowest_error_then_smaller_value():
    grid = (0.1, 1.0, 10.0)
    folds = [[0.2, 0.2], [0.0, 0.1], [0.1, 0.0]]
    assert checks.lambda_choice(grid, folds, 1.0) == []
    assert checks.lambda_choice(grid, folds, 10.0) != []


def test_round_trip_check_detects_a_changed_matrix(trained):
    _, model, _ = trained
    a = [t.matrix.entries for t in model.matrices]
    b = [x.copy() for x in a]
    assert checks.same_arrays("m", a, b) == []
    b[2][1, 1] = np.nextafter(b[2][1, 1], np.inf)
    assert checks.same_arrays("m", a, b) != []


def test_bulk_round_checks_and_negative_control(tmp_path):
    bulk = workloads.ClassifyBulk()
    bulk.held_out_per_class = 100
    state = bulk.setup(1, tmp_path)
    out = bulk.run_round(state)
    assert bulk.check(state, out) == []
    assert bulk.operations(state, out) == (600, 0)

    from dqml import Dataset

    out.test = Dataset(out.test.samples, np.random.default_rng(1).permutation(out.test.labels))
    assert bulk.check(state, out) != []


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
