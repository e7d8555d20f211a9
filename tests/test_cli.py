"""End-to-end checks of the command-line interface and its exit codes."""

import json
import os
import struct
import subprocess
import sys
import zlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import dqml
from dqml import cli, qml
from dqml.datasets import (
    SplitSpec,
    SynthSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    split_random,
)
from dqml.errors import NumericalFailureError
from dqml.pipeline import (
    Dataset,
    cross_validate_lambda,
    load_model,
    save_model,
    train_model_set,
)
from dqml.qml import TrainedQuadraticMatrix
from dqml.symmat import PSD_CERT_TOL

from conftest import reference_train


def run_cli(argv):
    """Invoke the CLI, normalizing argparse's SystemExit into a return code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def write_training_csv(path, seed=0, per_class=8, dim=3, classes=2, sep=6.0):
    spec = SynthSpec(class_count=classes, dim=dim, per_class=per_class,
                     separation=sep, sigma=1.0, seed=seed)
    save_csv(generate_synthetic(spec), path)
    return path


class TestSynth:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = run_cli(["synth", "--classes", "2", "--dim", "3", "--per-class", "4",
                        "--sep", "5", "--sigma", "1", "--seed", "3", "-o", str(out)])
        assert code == 0
        assert out.exists()
        sidecar = tmp_path / "data.csv.meta"
        # The sidecar lists rows, then every SynthSpec field by its own name.
        lines = sidecar.read_text().splitlines()
        keys = [line.split(":")[0] for line in lines]
        assert keys == ["rows", *(f.name for f in fields(SynthSpec))]
        assert lines[:4] == ["rows: 8", "class_count: 2", "dim: 3", "per_class: 4"]
        assert lines[-1] == "seed: 3"
        assert len(out.read_text().strip().splitlines()) == 8
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"path": str(out), "sidecar": str(sidecar), "rows": 8}

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["synth", "--classes", "3", "--dim", "4", "--per-class", "5",
                "--sep", "2", "--sigma", "0.5", "--seed", "11"]
        assert run_cli(argv + ["-o", str(a)]) == 0
        assert run_cli(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_sigma_is_usage_error(self, tmp_path):
        code = run_cli(["synth", "--classes", "2", "--dim", "3", "--per-class", "4",
                        "--sep", "5", "--sigma", "0", "-o", str(tmp_path / "x.csv")])
        assert code == 2

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = run_cli(["synth", "--classes", "2", "--dim", "2", "--per-class", "3",
                        "--sep", "4", "--sigma", "1", "-o", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == 6
        assert payload["path"] == str(out)


class TestTrain:
    def test_fixed_lambda_writes_model_and_reports(self, tmp_path, capsys):
        data = write_training_csv(tmp_path / "train.csv")
        model_path = tmp_path / "model.dqml"
        code = run_cli(["train", "--data", str(data), "--lambda", "1.0",
                        "-o", str(model_path)])
        assert code == 0
        lines = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
        per_class = [ln for ln in lines if "class" in ln]
        assert [ln["class"] for ln in per_class] == [1, 2]
        for ln in per_class:
            assert ln["converged"] is True
            assert ln["termination"] == "converged"
            assert abs(ln["duality_gap"]) <= 1e-5 * max(1.0, abs(ln["primal_objective"]))
            assert ln["iterations"] >= 1
            assert ln["evaluations"] >= ln["iterations"] + 1
            assert 0.0 <= ln["grad_inf_norm"] <= qml.GRAD_TOL
            assert 0.0 <= ln["max_violation"] <= 1e-4
            assert ln["seconds"] >= 0.0
        assert lines[-1]["lambda"] == 1.0
        model = load_model(model_path)
        assert model.class_count == 2
        assert "warning" not in capsys.readouterr().err

    def test_unconverged_classes_warn_on_stderr(self, tmp_path, capsys, monkeypatch):
        # Acceptance test 8's reference split, with an iteration cap that
        # stops all three classes short of the tolerance.
        monkeypatch.setattr(qml, "MAX_ITERATIONS", 5)
        data = tmp_path / "train.csv"
        save_csv(reference_train(), data)
        code = run_cli(["train", "--data", str(data), "--lambda", "10",
                        "-o", str(tmp_path / "m.dqml")])
        assert code == 0
        captured = capsys.readouterr()
        per_class = [json.loads(ln) for ln in captured.out.splitlines() if '"class"' in ln]
        warned = captured.err.splitlines()
        assert len(warned) == 3
        for ln, warning in zip(per_class, warned):
            assert ln["converged"] is False
            assert ln["termination"] == "max_iterations"
            assert warning.startswith(
                f"warning: class {ln['class']} did not converge ({ln['termination']}, grad "
            )

    def test_per_class_lines_carry_kkt_slackness_and_min_eigenvalue(self, tmp_path, capsys):
        # README's synth data at lambda 0.1.
        data = tmp_path / "data.csv"
        assert run_cli(["synth", "--classes", "3", "--dim", "10", "--per-class", "70",
                        "--sep", "6", "--sigma", "1", "-o", str(data)]) == 0
        capsys.readouterr()
        code = run_cli(["train", "--data", str(data), "--lambda", "0.1",
                        "-o", str(tmp_path / "m.dqml")])
        assert code == 0
        out = capsys.readouterr().out
        per_class = [json.loads(ln) for ln in out.splitlines() if '"class"' in ln]
        ds, _ = load_csv(data)
        model = train_model_set(ds, 0.1)
        assert [ln["class"] for ln in per_class] == [1, 2, 3]
        for ln, trained in zip(per_class, model.matrices):
            assert {"duality_gap", "complementary_slackness", "min_eigenvalue",
                    "termination"} <= ln.keys()
            assert ln["complementary_slackness"] == trained.report.complementary_slackness
            assert ln["min_eigenvalue"] == trained.report.min_eigenvalue
            assert ln["min_eigenvalue"] >= -PSD_CERT_TOL

    def test_cv_grid_selects_lambda(self, tmp_path, capsys):
        data = write_training_csv(tmp_path / "train.csv", per_class=12)
        code = run_cli(["train", "--data", str(data), "--lambda", "0.3,3",
                        "--folds", "3", "-o", str(tmp_path / "m.dqml")])
        assert code == 0
        lines = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
        assert lines[0]["selected_lambda"] in (0.3, 3.0)
        assert lines[-1]["lambda"] == lines[0]["selected_lambda"]
        _, table = cross_validate_lambda(load_csv(data)[0], [0.3, 3.0], folds=3)
        assert lines[0]["cv"] == [
            {"lambda": e.lam, "mean_error": e.mean_error, "unconverged": e.unconverged,
             "worst_grad_inf_norm": e.worst_grad_inf_norm} for e in table
        ]

    def test_missing_file_is_usage_error(self, tmp_path):
        code = run_cli(["train", "--data", str(tmp_path / "nope.csv"),
                        "--lambda", "1", "-o", str(tmp_path / "m.dqml")])
        assert code == 2

    def test_non_utf8_csv_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "utf16.csv"
        data.write_bytes(b"\xff\xfe" + "1,0.5\n2,1.5\n".encode("utf-16-le"))
        code = run_cli(["train", "--data", str(data), "--lambda", "1",
                        "-o", str(tmp_path / "m.dqml")])
        assert code == 2
        assert f"error: {data}: not UTF-8 text" in capsys.readouterr().err

    def test_byte_order_mark_csv_trains_the_same_model(self, tmp_path):
        plain = write_training_csv(tmp_path / "plain.csv")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        models = [tmp_path / "plain.dqml", tmp_path / "marked.dqml"]
        for data, model_path in zip((plain, marked), models):
            assert run_cli(["train", "--data", str(data), "--lambda", "1",
                            "-o", str(model_path)]) == 0
        assert models[0].read_bytes() == models[1].read_bytes()

    def test_numerical_failure_exits_5(self, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise NumericalFailureError("eigendecomposition did not converge")

        monkeypatch.setattr(cli, "train_model_set", fail)
        data = write_training_csv(tmp_path / "train.csv")
        code = run_cli(["train", "--data", str(data), "--lambda", "1",
                        "-o", str(tmp_path / "m.dqml")])
        assert code == 5
        assert "error: eigendecomposition did not converge" in capsys.readouterr().err

    def test_folds_with_single_lambda_rejected(self, tmp_path, capsys):
        data = write_training_csv(tmp_path / "train.csv")
        model_path = tmp_path / "m.dqml"
        code = run_cli(["train", "--data", str(data), "--lambda", "1",
                        "--folds", "3", "-o", str(model_path)])
        assert code == 2
        assert "--folds needs several --lambda values" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--lambda", "1,1", "-o", "m.dqml"],
        ["protocol", "--m-train", "3", "--lambda", "0.3,0.3"],
    ])
    def test_repeated_lambda_rejected(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        write_training_csv(tmp_path / "train.csv")
        code = run_cli([argv[0], "--data", "train.csv", *argv[1:]])
        assert code == 2
        assert "repeats a value" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.csv"]

    def test_neither_lambda_nor_grid_rejected(self, tmp_path):
        data = write_training_csv(tmp_path / "train.csv")
        code = run_cli(["train", "--data", str(data), "-o", str(tmp_path / "m.dqml")])
        assert code == 2

    def test_infeasible_class_exits_3(self, tmp_path, capsys):
        rows = ["1,1.0,0.0", "1,0.9,0.1", "2,0.0,0.0", "2,0.1,0.9"]
        data = tmp_path / "bad.csv"
        data.write_text("\n".join(rows) + "\n")
        code = run_cli(["train", "--data", str(data), "--lambda", "1",
                        "-o", str(tmp_path / "m.dqml")])
        assert code == 3
        assert "class 2" in capsys.readouterr().err

    def test_overflowing_data_exits_2_without_numpy_warnings(self, tmp_path):
        # In a child process, so stderr is exactly what a user of the CLI sees.
        cases = [
            (["1,1e308,1", "1,1e308,2", "2,1e308,-1", "2,1e308,-3"], "non-finite"),
            # Finite samples of class 1 whose squared norms overflow.
            (["1,1e160,1", "1,1e160,2", "2,1,0", "2,0,1"], "class 1: "),
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(dqml.__file__).parent.parent))
        for rows, message in cases:
            data = tmp_path / "big.csv"
            data.write_text("\n".join(rows) + "\n")
            proc = subprocess.run(
                [sys.executable, "-m", "dqml.cli", "train", "--data", str(data),
                 "--lambda", "1", "-o", str(tmp_path / "m.dqml")],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 2
            assert "non-finite" in proc.stderr
            assert message in proc.stderr
            assert "RuntimeWarning" not in proc.stderr

    def test_all_zero_cv_fold_exits_5(self, tmp_path, capsys, monkeypatch):
        # A solve capped at 0 iterations stops at u = 0, where P = 0, so every
        # class matrix of the first CV fold at lambda 0.1 is zero.
        monkeypatch.setattr(qml, "MAX_ITERATIONS", 0)
        data = write_training_csv(tmp_path / "data.csv", per_class=20)
        code = run_cli(["train", "--data", str(data), "--lambda", "0.1,0.3,1,3,10",
                        "-o", str(tmp_path / "m.dqml")])
        assert code == 5
        assert "error: lambda 0.1, fold 1: every class matrix is zero" in capsys.readouterr().err


class TestEval:
    @pytest.fixture()
    def trained(self, tmp_path):
        data = write_training_csv(tmp_path / "train.csv")
        model_path = tmp_path / "model.dqml"
        assert run_cli(["train", "--data", str(data), "--lambda", "1.0",
                        "-o", str(model_path)]) == 0
        return data, model_path

    def test_single_shot_reports_both_rules(self, trained, capsys):
        data, model_path = trained
        capsys.readouterr()
        code = run_cli(["eval", "--model", str(model_path), "--data", str(data)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "single"
        for rule in ("max", "nn_cosine"):
            assert payload[rule]["error"] <= 0.25
            assert payload[rule]["seconds"] > 0.0
            assert payload[rule]["us_per_sample"] > 0.0

    def test_all_zero_model_is_usage_error(self, trained, tmp_path, capsys):
        data, model_path = trained
        model = load_model(model_path)
        zero = tuple(TrainedQuadraticMatrix(np.zeros((model.dim, 0)), None, None)
                     for _ in model.matrices)
        save_model(replace(model, matrices=zero,
                           training_features=np.zeros_like(model.training_features)),
                   model_path)
        capsys.readouterr()
        assert run_cli(["eval", "--model", str(model_path), "--data", str(data)]) == 2
        assert "error: every class matrix is zero" in capsys.readouterr().err

    def test_protocol_reports_mean_and_std(self, tmp_path, capsys):
        data = write_training_csv(tmp_path / "all.csv", per_class=10)
        code = run_cli(["protocol", "--data", str(data),
                        "--m-train", "5", "--reps", "3", "--lambda", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reps"] == 3
        assert payload["lambdas"] == [1.0, 1.0, 1.0]
        assert payload["cv"] is None
        for rule in ("max", "nn_cosine"):
            assert 0.0 <= payload[rule]["mean_error"] <= 0.5
            assert payload[rule]["std_error"] >= 0.0

    def test_protocol_chooses_lambda_by_cv(self, tmp_path, capsys):
        data = write_training_csv(tmp_path / "all.csv", per_class=14)
        argv = ["protocol", "--data", str(data), "--m-train", "10",
                "--reps", "1", "--lambda", "0.1,1", "--folds", "2"]
        assert run_cli(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["lambdas"]) == 1
        assert all(lam in (0.1, 1.0) for lam in payload["lambdas"])
        train, _ = split_random(load_csv(data)[0], SplitSpec(10, seed=0), 0)
        _, table = cross_validate_lambda(train, [0.1, 1.0], folds=2, seed=0)
        assert payload["cv"] == [[
            {"lambda": e.lam, "mean_error": e.mean_error, "unconverged": e.unconverged,
             "worst_grad_inf_norm": e.worst_grad_inf_norm} for e in table
        ]]

    def test_protocol_single_rep_has_zero_std(self, tmp_path, capsys):
        data = write_training_csv(tmp_path / "all.csv", per_class=6)
        code = run_cli(["protocol", "--data", str(data),
                        "--m-train", "3", "--reps", "1", "--lambda", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max"]["std_error"] == 0.0
        assert payload["nn_cosine"]["std_error"] == 0.0

    def test_protocol_rejects_model(self, trained, capsys):
        data, model_path = trained
        code = run_cli(["protocol", "--data", str(data),
                        "--m-train", "3", "--model", str(model_path)])
        assert code == 2
        assert "unrecognized arguments: --model" in capsys.readouterr().err

    def test_protocol_needs_m_train(self, tmp_path, capsys):
        data = write_training_csv(tmp_path / "all.csv")
        code = run_cli(["protocol", "--data", str(data), "--lambda", "1"])
        assert code == 2
        assert "required: --m-train" in capsys.readouterr().err

    def test_needs_model_or_protocol(self, tmp_path, capsys):
        data = write_training_csv(tmp_path / "all.csv")
        assert run_cli(["eval", "--data", str(data)]) == 2
        assert "required: --model" in capsys.readouterr().err

    def test_dimension_mismatch_is_usage_error(self, trained, tmp_path):
        _, model_path = trained
        other = write_training_csv(tmp_path / "wide.csv", dim=5)
        code = run_cli(["eval", "--model", str(model_path), "--data", str(other)])
        assert code == 2

    def test_row_order_does_not_change_the_classes(self, tmp_path, capsys):
        # Labels are numbered in sorted order, so a test file whose rows start
        # with class 3 is scored against the same classes as the training file.
        data = tmp_path / "train.csv"
        save_csv(generate_synthetic(SynthSpec(3, 4, 30, 6.0, 1.0, seed=0)), data)
        rows = data.read_text().splitlines()
        reordered = tmp_path / "class3_first.csv"
        reordered.write_text(
            "\n".join(sorted(rows, key=lambda r: -int(r.split(",")[0]))) + "\n"
        )
        model_path = tmp_path / "model.dqml"
        assert run_cli(["train", "--data", str(data), "--lambda", "1",
                        "-o", str(model_path)]) == 0
        capsys.readouterr()
        reports = []
        for path in (data, reordered):
            assert run_cli(["eval", "--model", str(model_path), "--data", str(path)]) == 0
            payload = json.loads(capsys.readouterr().out)
            for rule in ("max", "nn_cosine"):
                del payload[rule]["seconds"], payload[rule]["us_per_sample"]
            reports.append(payload)
        assert reports[0] == reports[1]

    @pytest.fixture()
    def three_classes(self, tmp_path):
        """ROADMAP's reproduction: 3 classes trained at lambda 1, and eval's
        JSON on a CSV of the rows whose labels pass a filter."""
        data = tmp_path / "d.csv"
        assert run_cli(["synth", "--classes", "3", "--dim", "4", "--per-class", "20",
                        "--sep", "6", "--sigma", "1", "--seed", "1", "-o", str(data)]) == 0
        model_path = tmp_path / "m.dqml"
        assert run_cli(["train", "--data", str(data), "--lambda", "1",
                        "-o", str(model_path)]) == 0
        rows = data.read_text().splitlines()

        def eval_rows(keep, relabel=str):
            subset = tmp_path / "subset.csv"
            subset.write_text("".join(
                f"{relabel(r.split(',', 1)[0])},{r.split(',', 1)[1]}\n"
                for r in rows if keep(int(r.split(",")[0]))
            ))
            code = run_cli(["eval", "--model", str(model_path), "--data", str(subset)])
            return code, subset

        return data, model_path, eval_rows

    def test_test_file_may_lack_a_class(self, three_classes, capsys):
        # Before the model stored its labels, the rows without class 2 scored
        # 50% error and class 3's rows alone 100%, both with exit 0.
        _, _, eval_rows = three_classes
        capsys.readouterr()
        for keep in (lambda lab: True, lambda lab: lab != 2, lambda lab: lab == 3):
            code, _ = eval_rows(keep)
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["max"]["error"] == payload["nn_cosine"]["error"] == 0.0
            assert [c["label"] for c in payload["classes"]] == [1, 2, 3]

    def test_label_the_model_lacks_is_usage_error(self, three_classes, capsys):
        _, _, eval_rows = three_classes
        capsys.readouterr()
        code, subset = eval_rows(lambda lab: lab != 2, {"1": "1", "3": "4"}.get)
        assert code == 2
        assert f"error: {subset}: labels [4] are not classes of the model" in (
            capsys.readouterr().err
        )

    def test_original_labels_round_trip(self, tmp_path, capsys):
        data, model_path = tmp_path / "d.csv", tmp_path / "m.dqml"
        original = {1: 3, 2: 7, 3: 10}
        ds = generate_synthetic(SynthSpec(3, 4, 20, 6.0, 1.0, seed=1))
        save_csv(Dataset(ds.samples, [original[lab] for lab in ds.labels]), data)
        assert run_cli(["train", "--data", str(data), "--lambda", "1",
                        "-o", str(model_path)]) == 0
        per_class = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()
                     if '"class"' in ln]
        assert [ln["label"] for ln in per_class] == [3, 7, 10]
        model = load_model(model_path)
        assert model.class_labels == (3, 7, 10)
        rows = data.read_text().splitlines()
        subset = tmp_path / "subset.csv"
        subset.write_text("\n".join(r for r in rows if not r.startswith("3,")) + "\n")
        assert run_cli(["eval", "--model", str(model_path), "--data", str(subset)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 40
        assert payload["max"]["error"] == payload["nn_cosine"]["error"] == 0.0
        for ln, summary in zip(per_class, payload["classes"]):
            assert summary.keys() == {"label", *model.summaries[0]}
            assert summary == {k: ln[k] for k in summary}

    def test_invalid_utf8_after_valid_rows_is_usage_error(self, trained, tmp_path, capsys):
        _, model_path = trained
        data = tmp_path / "late.csv"
        data.write_bytes(b"1,0.5,0.5,0.5\n2,1.5,1.5,1.5\n1,\xff0.5,0.5,0.5\n")
        capsys.readouterr()
        assert run_cli(["eval", "--model", str(model_path), "--data", str(data)]) == 2
        assert f"error: {data}: not UTF-8 text" in capsys.readouterr().err

    def test_corrupt_model_is_usage_error(self, trained, tmp_path, capsys):
        data, model_path = trained
        blob = model_path.read_bytes()
        cases = [(b"X" + blob[1:], "bad magic bytes")]
        # Versions 1 and 2, which earlier builds wrote, are refused even with a
        # valid checksum: the version is read first.
        for v in (1, 2):
            old = b"DQML" + struct.pack("<I", v) + blob[8:-4]
            cases.append((old + struct.pack("<I", zlib.crc32(old)),
                          f"version {v} is not supported (this build reads version 3)"))
        bad = tmp_path / "bad.dqml"
        for payload, message in cases:
            bad.write_bytes(payload)
            capsys.readouterr()
            assert run_cli(["eval", "--model", str(bad), "--data", str(data)]) == 2
            assert message in capsys.readouterr().err


class TestDiagnose:
    def test_clean_run_exits_zero(self, capsys):
        code = run_cli(["diagnose", "--random-instances", "4", "--dim", "5",
                        "--seed", "7"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == 0
        assert payload["instances"] == 4 and payload["dim"] == 5
        assert len(payload["checks"]) == 4 * 5
        assert "suboptimality" in {c["check"] for c in payload["checks"]}

    def test_json_checks_all_pass(self, capsys):
        code = run_cli(["diagnose", "--random-instances", "3", "--dim", "4",
                        "--seed", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == 0
        names = {c["check"] for c in payload["checks"]}
        assert names == {"gradient_fd_rel_error", "suboptimality",
                         "feasibility_violation", "complementary_slackness",
                         "negative_eigenvalue"}
        assert all(c["pass"] for c in payload["checks"])

    def test_grid_oracle_agreement(self, capsys):
        code = run_cli(["diagnose", "--random-instances", "3", "--dim", "2",
                        "--seed", "7", "--grid-oracle", "0.05"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        diffs = [c for c in payload["checks"]
                 if c["check"] == "grid_objective_difference"]
        assert len(diffs) == 3
        assert all(c["tolerance"] == pytest.approx(0.1) for c in diffs)

    def test_grid_oracle_needs_dim_2(self):
        code = run_cli(["diagnose", "--dim", "3", "--grid-oracle"])
        assert code == 2

    def test_grid_oracle_step_defaults_to_0_01(self):
        parser = cli.build_parser()
        assert parser.parse_args(["diagnose", "--grid-oracle"]).grid_step == 0.01
        assert parser.parse_args(["diagnose"]).grid_step is None

    def test_grid_oracle_refuses_a_step_past_the_cap(self, capsys):
        # The instances are unit-norm, so the bracket is 3 and 0.001 would
        # put 3000 steps across it.
        code = run_cli(["diagnose", "--random-instances", "1", "--dim", "2",
                        "--grid-oracle", "0.001"])
        assert code == 2
        assert "smallest step accepted is 0.005" in capsys.readouterr().err

    def test_penalty_oracle_agreement(self, capsys):
        code = run_cli(["diagnose", "--random-instances", "3", "--dim", "4",
                        "--seed", "2", "--penalty-oracle"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        diffs = [c for c in payload["checks"]
                 if c["check"] == "penalty_objective_difference"]
        assert len(diffs) == 3

    @staticmethod
    def perturb_gradient(monkeypatch):
        """Corrupt the analytic gradient that diagnose checks (negative control)."""
        exact = cli.dual_gradient

        def perturbed(prob, u):
            g = exact(prob, u)
            return g + 1e-3 * (1.0 + np.abs(g))

        monkeypatch.setattr(cli, "dual_gradient", perturbed)

    def test_perturbed_gradient_is_caught(self, monkeypatch, capsys):
        self.perturb_gradient(monkeypatch)
        code = run_cli(["diagnose", "--random-instances", "2", "--dim", "4",
                        "--seed", "0"])
        assert code == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] >= 1
        assert any(c["check"] == "gradient_fd_rel_error" and not c["pass"]
                   and c["value"] > c["tolerance"] for c in payload["checks"])

    def test_failure_table_lists_instances(self, monkeypatch, capsys):
        self.perturb_gradient(monkeypatch)
        code = run_cli(["diagnose", "--random-instances", "2", "--dim", "3",
                        "--seed", "5"])
        assert code == 4
        payload = json.loads(capsys.readouterr().out)
        bad = [c for c in payload["checks"] if not c["pass"]]
        assert {c["check"] for c in bad} == {"gradient_fd_rel_error"}
        assert {c["instance"] for c in bad} == {0, 1}


def synth_argv(out, dim="2"):
    return ["synth", "--classes", "2", "--dim", dim, "--per-class", "3",
            "--sep", "4", "--sigma", "1", "-o", str(out)]


class TestArgumentTypes:
    @pytest.mark.parametrize("command", ["synth", "protocol", "diagnose"])
    def test_negative_seed_is_usage_error(self, command, tmp_path, capsys):
        # Valid arguments otherwise, so an accepted seed would reach an RNG.
        data = str(write_training_csv(tmp_path / "d.csv"))
        argv = {
            "synth": synth_argv(tmp_path / "out"),
            "protocol": ["protocol", "--data", data, "--m-train", "3", "--lambda", "1"],
            "diagnose": ["diagnose", "--random-instances", "1"],
        }[command]
        assert run_cli(argv + ["--seed", "-1"]) == 2
        assert "'-1' must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--dim", "0", "'0' must be a positive integer"),
        ("--lambda", "a,b", "bad grid 'a,b'"),
        ("--lambda", "0,1", "grid values must be positive numbers"),
        ("--lambda", ",", "grid values must be positive numbers"),
        ("--lambda", "1,,3", "'1,,3' has an empty item"),
        ("--lambda", "1,", "'1,' has an empty item"),
        ("--lambda", ",1", "',1' has an empty item"),
    ])
    def test_refused_values_are_usage_errors(self, flag, value, message, tmp_path, capsys):
        if flag == "--dim":
            argv = synth_argv(tmp_path / "d.csv", dim=value)
        else:
            argv = ["train", "--data", str(tmp_path / "d.csv"), flag, value,
                    "-o", str(tmp_path / "m.dqml")]
        assert run_cli(argv) == 2
        assert message in capsys.readouterr().err


    # Each pair was accepted and silently ignored when train, eval and the
    # split protocol shared their flags; now each is a usage error. --json
    # chose JSON output before it became every subcommand's only output.
    @pytest.mark.parametrize("argv, message", [
        (["eval", "--model", "M", "--data", "D", "--m-train", "3"], "unrecognized"),
        (["eval", "--model", "M", "--data", "D", "--reps", "3"], "unrecognized"),
        (["eval", "--model", "M", "--data", "D", "--lambda", "5"], "unrecognized"),
        (["eval", "--model", "M", "--data", "D", "--cv-grid", "1,2"], "unrecognized"),
        (["eval", "--model", "M", "--data", "D", "--folds", "3"], "unrecognized"),
        (["eval", "--model", "M", "--data", "D", "--seed", "5"], "unrecognized"),
        (["protocol", "--data", "D", "--m-train", "3", "--lambda", "1",
          "--cv-grid", "0.1,0.3"], "unrecognized"),
        (["protocol", "--data", "D", "--m-train", "3", "--lambda", "1",
          "--folds", "3"], "--folds needs several --lambda values"),
        (["train", "--data", "D", "--lambda", "1", "--folds", "3", "-o", "O"],
         "--folds needs several --lambda values"),
        (["train", "--data", "D", "--lambda", "1", "--seed", "5", "-o", "O"],
         "unrecognized"),
        (["diagnose", "--random-instances", "1", "--step", "7"], "unrecognized"),
        (synth_argv("O") + ["--json"], "unrecognized"),
        (["train", "--data", "D", "--lambda", "1", "-o", "O", "--json"], "unrecognized"),
        (["eval", "--model", "M", "--data", "D", "--json"], "unrecognized"),
        (["protocol", "--data", "D", "--m-train", "3", "--lambda", "1", "--json"],
         "unrecognized"),
        (["diagnose", "--random-instances", "1", "--json"], "unrecognized"),
    ], ids=["eval-m-train", "eval-reps", "eval-lambda", "eval-cv-grid", "eval-folds",
            "eval-seed", "protocol-cv-grid", "protocol-folds", "train-folds",
            "train-seed", "diagnose-step", "synth-json", "train-json", "eval-json",
            "protocol-json", "diagnose-json"])
    def test_ignored_flags_are_usage_errors(self, argv, message, tmp_path, capsys):
        # Valid files otherwise, so only the flag can make the command fail.
        data = write_training_csv(tmp_path / "d.csv")
        model_path = tmp_path / "m.dqml"
        assert run_cli(["train", "--data", str(data), "--lambda", "1",
                        "-o", str(model_path)]) == 0
        capsys.readouterr()
        paths = {"D": str(data), "M": str(model_path), "O": str(tmp_path / "o.dqml")}
        assert run_cli([paths.get(a, a) for a in argv]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.dqml").exists()

    @pytest.mark.parametrize("command", ["synth", "train", "eval", "protocol", "diagnose"])
    def test_help_renders(self, command, capsys):
        assert run_cli([command, "--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: dqml {command}")


def strict_json(line):
    """One stdout line parsed as standard JSON, which has no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(line, parse_constant=refuse)


class TestOutput:
    def test_every_subcommand_prints_only_json_objects(self, tmp_path, capsys):
        data, model_path = tmp_path / "d.csv", tmp_path / "m.dqml"
        for argv in (
            ["synth", "--classes", "2", "--dim", "2", "--per-class", "6",
             "--sep", "4", "--sigma", "1", "-o", str(data)],
            ["train", "--data", str(data), "--lambda", "0.1,1", "--folds", "2",
             "-o", str(model_path)],
            ["eval", "--model", str(model_path), "--data", str(data)],
            ["protocol", "--data", str(data), "--m-train", "4", "--reps", "2",
             "--lambda", "0.1"],
            ["diagnose", "--random-instances", "2", "--dim", "3"],
        ):
            assert run_cli(argv) == 0, argv
            lines = capsys.readouterr().out.splitlines()
            assert lines, argv
            assert all(isinstance(strict_json(ln), dict) for ln in lines), argv

    def test_infinite_suboptimality_prints_as_null(self, tmp_path, capsys):
        # README's data at 10 times the scale (ROADMAP item 9): at lambda 0.1
        # some class's P stays 0, so its suboptimality bound is inf. The model
        # file stores inf, and train and eval both print null.
        data, model_path = tmp_path / "x10.csv", tmp_path / "x10.dqml"
        assert run_cli(["synth", "--classes", "3", "--dim", "10", "--per-class", "70",
                        "--sep", "60", "--sigma", "10", "-o", str(data)]) == 0
        capsys.readouterr()
        assert run_cli(["train", "--data", str(data), "--lambda", "0.1",
                        "-o", str(model_path)]) == 0
        train = [strict_json(ln) for ln in capsys.readouterr().out.splitlines()]
        zero = [ln["class"] - 1 for ln in train if "class" in ln and ln["primal_objective"] == 0.0]
        assert zero
        summaries = load_model(model_path).summaries
        assert run_cli(["eval", "--model", str(model_path), "--data", str(data)]) == 0
        (payload,) = [strict_json(ln) for ln in capsys.readouterr().out.splitlines()]
        for c in zero:
            assert train[c]["suboptimality"] is None
            assert summaries[c]["suboptimality"] == float("inf")
            assert payload["classes"][c]["suboptimality"] is None


class TestReadme:
    README = Path(__file__).resolve().parent.parent / "README.md"

    def test_command_line_examples_parse(self):
        """Every ``dqml ...`` line in README's "Command line" block parses."""
        block = self.README.read_text().split("## Command line", 1)[1].split("```")[1]
        lines = [line for line in block.splitlines() if line.startswith("dqml ")]
        assert len(lines) >= 6
        parser = cli.build_parser()
        for line in lines:
            try:
                parser.parse_args(line.split()[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")

    def test_library_quickstart_runs(self, capsys):
        """README's "Library quickstart" block runs as documented."""
        section = self.README.read_text().split("## Library quickstart", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md quickstart", "exec"), {})
        iterations, gap, bound, label, error = capsys.readouterr().out.split()
        assert int(iterations) >= 1 and abs(float(gap)) < 1e-3
        assert -1e-12 <= float(bound) < 1e-3
        assert int(label) in (1, 2, 3) and 0.0 <= float(error) <= 1.0
