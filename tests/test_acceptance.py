"""Acceptance gate: nine quantitative checks with pinned tolerances.

Each test records one PASS/FAIL verdict line, replayed in the terminal
summary so the gate's outcome is visible in any pytest run.
The checks are scaled-down but honest: random instance families, fixed
seeds, independent finite-difference and reference-solver oracles, and
explicit runtime budgets.
"""

import time

import numpy as np

from dqml import (
    ClassProblem,
    Dataset,
    ModelSet,
    SplitSpec,
    SymmetricMatrix,
    SynthSpec,
    classify_max,
    classify_nn_cosine,
    cross_validate_lambda,
    dual_gradient,
    dual_objective,
    evaluate,
    extract_features,
    generate_synthetic,
    kkt_report,
    load_model,
    random_class_problem,
    save_model,
    solve_dual,
    solve_primal_grid,
    solve_primal_penalty,
    solve_unregularized,
    split_random,
    train_model_set,
)
from dqml.pipeline import FeatureVector
from dqml.symmat import (
    frobenius_norm,
    min_eigenvalue,
    negative_part,
    positive_part,
    trace_product,
)


def _fifty_problems():
    """Shared instance family for the gradient and duality checks."""
    lams = (0.1, 1.0, 10.0)
    problems = []
    for k in range(50):
        rng = np.random.default_rng([7, k])
        dim = int(rng.integers(2, 11))
        n_c = int(rng.integers(2, 9))
        n_e = int(rng.integers(5, 31))
        prob = random_class_problem(
            rng, dim=dim, n_intra=n_c, n_extra=n_e, lam=lams[k % 3]
        )
        problems.append((prob, rng))
    return problems


def _fd_gradient(prob, u, h=1e-6):
    g = np.zeros_like(u)
    for i in range(u.size):
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        g[i] = (dual_objective(prob, up) - dual_objective(prob, um)) / (2 * h)
    return g


def test_01_matrix_part_calculus(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = {"recon": 0.0, "cone": 0.0, "orth": 0.0, "idem": 0.0}
    ok = True
    for _ in range(200):
        m = int(rng.integers(2, 65))
        b = rng.normal(size=(m, m))
        a = SymmetricMatrix((b + b.T) / 2)
        norm = frobenius_norm(a)
        pos, neg = positive_part(a), negative_part(a)

        recon = np.max(np.abs(pos.entries + neg.entries - a.entries))
        worst["recon"] = max(worst["recon"], recon)
        ok &= recon <= 1e-9 * max(1.0, norm)

        cone = max(-min_eigenvalue(pos), float(np.linalg.eigvalsh(neg.entries)[-1]))
        worst["cone"] = max(worst["cone"], cone)
        ok &= cone <= 1e-9 * norm

        orth = abs(trace_product(pos, neg))
        worst["orth"] = max(worst["orth"], orth)
        ok &= orth <= 1e-8 * norm**2

        idem = np.max(np.abs(positive_part(pos).entries - pos.entries))
        worst["idem"] = max(worst["idem"], idem)
        ok &= idem <= 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    verdict(
        "1 matrix part calculus",
        ok,
        f"200 matrices m<=64: worst recon {worst['recon']:.1e}, cone "
        f"{worst['cone']:.1e}, orthogonality {worst['orth']:.1e}, "
        f"idempotence {worst['idem']:.1e} ({elapsed:.1f}s < 10s)",
    )


def test_02_gradient_matches_finite_differences(verdict):
    t0 = time.perf_counter()
    worst = 0.0
    for prob, rng in _fifty_problems():
        for _ in range(20):
            u = rng.uniform(0.2, 2.0, size=prob.n_intra)
            g = dual_gradient(prob, u)
            g_fd = _fd_gradient(prob, u)
            rel = float(np.max(np.abs(g - g_fd))) / max(1.0, float(np.max(np.abs(g_fd))))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    verdict(
        "2 dual gradient vs finite differences",
        ok,
        f"50 problems x 20 interior points: worst relative error "
        f"{worst:.1e} <= 1e-5 ({elapsed:.1f}s < 30s)",
    )


def test_03_strong_duality_and_kkt(verdict):
    t0 = time.perf_counter()
    worst = {"gap": 0.0, "viol": 0.0, "slack": 0.0, "mineig": 0.0}
    all_converged = True
    for prob, _ in _fifty_problems():
        trained = solve_dual(prob)
        all_converged &= trained.report.converged
        rep = kkt_report(prob, trained.dual, trained.matrix)
        worst["gap"] = max(
            worst["gap"],
            abs(rep.duality_gap) / max(1.0, abs(rep.primal_objective)),
        )
        worst["viol"] = max(worst["viol"], rep.max_violation)
        worst["slack"] = max(worst["slack"], rep.complementary_slackness)
        worst["mineig"] = max(worst["mineig"], -rep.min_eigenvalue)
    elapsed = time.perf_counter() - t0
    ok = (
        all_converged
        and worst["gap"] <= 1e-5
        and worst["viol"] <= 1e-4
        and worst["slack"] <= 1e-4
        and worst["mineig"] <= 1e-8
        and elapsed < 60.0
    )
    verdict(
        "3 strong duality and KKT",
        ok,
        f"50 problems converged={all_converged}: gap {worst['gap']:.1e} <= 1e-5, "
        f"violation {worst['viol']:.1e} <= 1e-4, slackness {worst['slack']:.1e} "
        f"<= 1e-4, negative eigenvalue {worst['mineig']:.1e} <= 1e-8 "
        f"({elapsed:.1f}s < 60s)",
    )


def test_04_oracle_equivalence(verdict):
    t0 = time.perf_counter()
    worst_grid = 0.0
    for k in range(10):
        rng = np.random.default_rng([4, k])
        prob = random_class_problem(
            rng, dim=2, n_intra=5, n_extra=4, lam=0.1, spread=0.25
        )
        primal = solve_dual(prob).report.primal_objective
        grid = solve_primal_grid(prob, step=0.01)
        worst_grid = max(worst_grid, abs(grid.objective - primal))

    worst_pen = 0.0
    lams = (0.1, 1.0, 10.0)
    for k in range(20):
        rng = np.random.default_rng([13, k])
        dim = int(rng.integers(2, 9))
        n_c = int(rng.integers(3, 7))
        n_e = int(rng.integers(5, 21))
        prob = random_class_problem(
            rng, dim=dim, n_intra=n_c, n_extra=n_e, lam=lams[k % 3]
        )
        primal = solve_dual(prob).report.primal_objective
        pen = solve_primal_penalty(prob)
        worst_pen = max(
            worst_pen, abs(pen.objective - primal) / max(1.0, abs(primal))
        )
    elapsed = time.perf_counter() - t0
    ok = worst_grid <= 0.02 and worst_pen <= 1e-3 and elapsed < 300.0
    verdict(
        "4 oracle equivalence",
        ok,
        f"grid (10 instances, step 0.01): worst diff {worst_grid:.4f} <= 0.02; "
        f"penalty (20 instances, m<=8): worst rel {worst_pen:.1e} <= 1e-3 "
        f"({elapsed:.1f}s < 300s)",
    )


def test_05_closed_form_instance(verdict):
    prob = ClassProblem(
        intra=np.array([[1.0, 0.0]]),
        extra_scatter=SymmetricMatrix(np.zeros((2, 2))),
        lam=1.0,
        margin=1.0,
    )
    trained = solve_dual(prob)
    u_err = abs(float(trained.dual.values[0]) - 1.0)
    p_err = float(np.max(np.abs(trained.matrix.entries - np.diag([1.0, 0.0]))))
    d_err = abs(trained.report.dual_objective - 0.5)
    ok = u_err <= 1e-6 and p_err <= 1e-6 and d_err <= 1e-6
    verdict(
        "5 closed-form instance",
        ok,
        f"u* err {u_err:.1e}, P err {p_err:.1e}, dual objective err {d_err:.1e}, "
        f"all <= 1e-6",
    )


def test_06_scaling_reparameterization(verdict):
    t0 = time.perf_counter()
    worst_reg = 0.0
    for k in range(10):
        for b in (0.5, 2.0, 5.0):
            rng = np.random.default_rng([6, k])
            lam = (0.1, 1.0, 10.0)[k % 3]
            base = random_class_problem(rng, dim=6, n_intra=6, n_extra=15, lam=lam)
            scaled = ClassProblem(base.intra, base.extra_scatter, lam=lam, margin=b)
            ref = ClassProblem(base.intra, base.extra_scatter, lam=lam / b, margin=1.0)
            p_b = solve_dual(scaled).matrix.entries
            p_1 = solve_dual(ref).matrix.entries
            rel = float(np.max(np.abs(p_b - b * p_1))) / max(
                1.0, float(np.max(np.abs(p_b)))
            )
            worst_reg = max(worst_reg, rel)

    worst_unreg = 0.0
    for k in range(10):
        rng = np.random.default_rng([60, k])
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        x = q[:, :2].T
        e = 0.3 * rng.normal(size=(8, 4))
        scatter = SymmetricMatrix(np.eye(4) + e.T @ e)
        p_1 = solve_unregularized(ClassProblem(x, scatter, lam=1.0)).matrix.entries
        for b in (0.5, 2.0, 5.0):
            p_b = solve_unregularized(
                ClassProblem(x, scatter, lam=1.0, margin=b)
            ).matrix.entries
            rel = float(np.max(np.abs(p_b - b * p_1))) / max(
                1.0, float(np.max(np.abs(p_b)))
            )
            worst_unreg = max(worst_unreg, rel)
    elapsed = time.perf_counter() - t0
    ok = worst_reg <= 1e-5 and worst_unreg <= 1e-3
    verdict(
        "6 scaling reparameterization",
        ok,
        f"P(b, lam) = b P(1, lam/b): worst rel {worst_reg:.1e} <= 1e-5 over "
        f"b in {{0.5, 2, 5}}; unregularized b-scaling worst rel "
        f"{worst_unreg:.1e} <= 1e-3 ({elapsed:.1f}s)",
    )


def test_07_iteration_counts_at_scale(verdict):
    t0 = time.perf_counter()
    ok = True
    medians = {}
    for dim in (100, 200):
        iters = []
        for i in range(10):
            rng = np.random.default_rng([21, dim, i])
            prob = random_class_problem(
                rng, dim=dim, n_intra=2 * dim, n_extra=4 * dim, lam=1.0
            )
            rep = solve_dual(prob).report
            iters.append(rep.iterations)
            ok &= rep.converged and rep.iterations <= 200
            ok &= rep.eig_calls == rep.objective_evals
        medians[dim] = float(np.median(iters))
        ok &= 10.0 <= medians[dim] <= 100.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    verdict(
        "7 iteration counts at scale",
        ok,
        f"m=100 median {medians[100]:.0f}, m=200 median {medians[200]:.0f} "
        f"iterations (all <= 200, medians in [10, 100], one eigendecomposition "
        f"per evaluation) ({elapsed:.1f}s < 300s)",
    )


def test_08_end_to_end_classification(verdict):
    t0 = time.perf_counter()
    spec = SynthSpec(
        class_count=3, dim=10, per_class=70, separation=6.0, sigma=1.0, seed=42
    )
    ds = generate_synthetic(spec)
    split = SplitSpec(per_class_train=20, seed=42)
    grid = (0.1, 0.3, 1.0, 3.0, 10.0)
    errors = {"max": [], "nn_cosine": []}
    for r in range(10):
        train_ds, test_ds = split_random(ds, split, r)
        lam, _ = cross_validate_lambda(train_ds, grid, folds=10, seed=42)
        model = train_model_set(train_ds, lam)
        for rule in errors:
            errors[rule].append(evaluate(model, test_ds, rule).error_rate)
    mean_max = float(np.mean(errors["max"]))
    mean_nn = float(np.mean(errors["nn_cosine"]))
    elapsed = time.perf_counter() - t0
    ok = (
        mean_max <= 0.05
        and mean_nn <= 0.05
        and mean_nn <= mean_max + 0.02
        and elapsed < 180.0
    )
    verdict(
        "8 end-to-end classification",
        ok,
        f"3-class Gaussians, 10 repetitions, 10-fold CV: mean error "
        f"max-rule {100 * mean_max:.1f}%, cosine-NN {100 * mean_nn:.1f}% "
        f"(both <= 5%, NN within 2pp of max) ({elapsed:.0f}s < 180s)",
    )


def test_09_pipeline_invariants(tmp_path, verdict):
    t0 = time.perf_counter()
    spec = SynthSpec(
        class_count=3, dim=6, per_class=10, separation=6.0, sigma=1.0, seed=9
    )
    ds = generate_synthetic(spec)
    model = train_model_set(ds, lam=1.0)

    feats = model.training_features
    nonneg = float(feats.min()) >= -1e-8

    intra_ok = True
    for i in range(ds.n):
        intra_ok &= feats[ds.labels[i] - 1, i] >= 1.0 - 1e-4

    rng = np.random.default_rng(3)
    order = np.arange(ds.n)
    others = np.flatnonzero(ds.labels != 1)
    order[others] = others[rng.permutation(others.size)]
    permuted = Dataset(samples=ds.samples[order], labels=ds.labels[order])
    model_perm = train_model_set(permuted, lam=1.0)
    independent = np.array_equal(
        model.matrices[0].matrix.entries, model_perm.matrices[0].matrix.entries
    )

    f = extract_features(model, ds.samples[0])
    scale_max = classify_max(f) == classify_max(FeatureVector(4.2 * f.values))
    scaled_feats = model.training_features.copy()
    scaled_feats[:, 2] *= 7.0
    scaled_model = ModelSet(
        model.matrices, model.lam, scaled_feats, model.training_labels
    )
    scale_nn = classify_nn_cosine(f, model) == classify_nn_cosine(
        FeatureVector(2.5 * f.values), scaled_model
    )

    model_again = train_model_set(ds, lam=1.0)
    p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
    save_model(model, p1)
    save_model(model_again, p2)
    deterministic = p1.read_bytes() == p2.read_bytes()
    loaded = load_model(p1)
    roundtrip = all(
        np.array_equal(a.matrix.entries, b.matrix.entries)
        for a, b in zip(model.matrices, loaded.matrices)
    ) and np.array_equal(model.training_features, loaded.training_features)
    same_eval = (
        evaluate(model, ds, "nn_cosine").error_rate
        == evaluate(loaded, ds, "nn_cosine").error_rate
    )

    elapsed = time.perf_counter() - t0
    ok = (
        nonneg
        and intra_ok
        and independent
        and scale_max
        and scale_nn
        and deterministic
        and roundtrip
        and same_eval
        and elapsed < 60.0
    )
    verdict(
        "9 pipeline invariants",
        ok,
        f"feature floor {nonneg}, intra margin {intra_ok}, per-class "
        f"independence {independent}, scale invariance {scale_max and scale_nn}, "
        f"determinism {deterministic}, round-trip {roundtrip and same_eval} "
        f"({elapsed:.1f}s < 60s)",
    )
