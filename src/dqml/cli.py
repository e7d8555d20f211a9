"""Command-line front end.

Subcommands: ``synth`` writes a synthetic Gaussian dataset, ``train`` fits
per-class matrices (with optional cross-validated regularization), ``eval``
scores a model or runs the repeated-split protocol, and ``diagnose`` runs
the solver's self-checks (finite-difference gradients, KKT residuals, and
reference-solver comparisons).

Exit codes: 0 success, 2 usage or parse problems, 3 infeasible problem,
4 diagnostic failure, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .datasets import (
    SplitSpec,
    SynthSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    split_random,
    write_sidecar,
)
from .errors import (
    InfeasibleProblemError,
    InvalidInputError,
    ModelIOError,
    NumericalFailureError,
    UnboundedProblemError,
)
from .oracle import solve_primal_grid, solve_primal_penalty
from .pipeline import (
    cross_validate_lambda,
    evaluate,
    load_model,
    save_model,
    train_model_set,
)
from .qml import (
    SolverConfig,
    dual_gradient,
    dual_objective,
    kkt_report,
    random_class_problem,
    solve_dual,
)
from .symmat import PSD_CERT_TOL

DEFAULT_LAMBDA_GRID = (0.1, 0.3, 1.0, 3.0, 10.0)

GAP_TOL = 1e-5
VIOLATION_TOL = 1e-4
SLACKNESS_TOL = 1e-4
FD_TOL = 1e-5
PENALTY_AGREEMENT_TOL = 1e-3


def _positive_float(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r} must be a positive number")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} must be a positive integer")
    return value


def _lambda_grid(text: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}") from None
    if not grid or any(not (np.isfinite(g) and g > 0) for g in grid):
        raise argparse.ArgumentTypeError("grid values must be positive numbers")
    return grid


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-iterations", type=_positive_int, default=500)
    p.add_argument("--grad-tol", type=_positive_float, default=1e-7)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(max_iterations=args.max_iterations, grad_tol=args.grad_tol)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqml",
        description="Per-class quadratic-matrix learning: train PSD matrices "
        "on the Lagrange dual, extract quadratic-form features, classify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic Gaussian dataset as CSV")
    p.add_argument("--classes", type=_positive_int, required=True)
    p.add_argument("--dim", type=_positive_int, required=True)
    p.add_argument("--per-class", type=_positive_int, required=True)
    p.add_argument("--sep", type=float, required=True, help="distance of class means from origin")
    p.add_argument("--sigma", type=_positive_float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one PSD matrix per class")
    p.add_argument("--data", required=True, help="training CSV (label,v1,...,vm)")
    p.add_argument("--lambda", dest="lam", type=_positive_float, default=None)
    p.add_argument("--cv-grid", type=_lambda_grid, default=None,
                   help="comma-separated candidates; picks the lowest-error one")
    p.add_argument("--folds", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True, help="model file to write")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model, or run the split protocol")
    p.add_argument("--data", required=True, help="CSV to evaluate on")
    p.add_argument("--model", default=None, help="model file (single-shot mode)")
    p.add_argument("--protocol", action="store_true",
                   help="repeatedly split, retrain, and report mean/std error")
    p.add_argument("--m-train", type=_positive_int, default=None,
                   help="training samples per class in protocol mode")
    p.add_argument("--reps", type=_positive_int, default=30)
    p.add_argument("--lambda", dest="lam", type=_positive_float, default=None)
    p.add_argument("--cv-grid", type=_lambda_grid, default=None)
    p.add_argument("--folds", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diagnose", help="solver self-checks on random instances")
    p.add_argument("--random-instances", type=_positive_int, default=10)
    p.add_argument("--dim", type=_positive_int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lam", type=_positive_float, default=None,
                   help="regularization weight (default 1; 0.1 with --grid-oracle)")
    p.add_argument("--n-intra", type=_positive_int, default=None,
                   help="intra-class samples per instance (default 12; 5 with --grid-oracle)")
    p.add_argument("--n-extra", type=_positive_int, default=None,
                   help="extra-class samples per instance (default 24; 4 with --grid-oracle)")
    p.add_argument("--grid-oracle", action="store_true",
                   help="compare against the exhaustive 2-d grid (dim must be 2); "
                   "instance defaults shrink so the grid bracket covers the optimum")
    p.add_argument("--step", type=_positive_float, default=0.01,
                   help="grid resolution for --grid-oracle")
    p.add_argument("--penalty-oracle", action="store_true",
                   help="compare against the penalty-method reference solver")
    p.add_argument("--perturb-grad", action="store_true",
                   help="corrupt the analytic gradient before checking (negative control)")
    p.add_argument("--json", action="store_true")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_diagnose)

    return parser


def cmd_synth(args) -> int:
    spec = SynthSpec(
        class_count=args.classes,
        dim=args.dim,
        per_class=args.per_class,
        separation=args.sep,
        sigma=args.sigma,
        seed=args.seed,
    )
    ds = generate_synthetic(spec)
    save_csv(ds, args.out)
    sidecar = write_sidecar(
        args.out,
        {
            "rows": ds.n,
            "classes": spec.class_count,
            "dim": spec.dim,
            "per_class": spec.per_class,
            "separation": spec.separation,
            "sigma": spec.sigma,
            "seed": spec.seed,
        },
    )
    if args.json:
        print(json.dumps({"path": args.out, "sidecar": str(sidecar), "rows": ds.n}))
    else:
        print(f"wrote {ds.n} rows to {args.out} (metadata in {sidecar})")
    return 0


def cmd_train(args) -> int:
    if (args.lam is None) == (args.cv_grid is None):
        raise InvalidInputError("give exactly one of --lambda or --cv-grid")
    ds, _ = load_csv(args.data)
    config = _solver_config(args)

    lam = args.lam
    if args.cv_grid is not None:
        lam, table = cross_validate_lambda(
            ds, args.cv_grid, folds=args.folds, config=config, seed=args.seed
        )
        print(json.dumps({
            "selected_lambda": lam,
            "cv": [{"lambda": e.lam, "mean_error": e.mean_error} for e in table],
        }))

    model = train_model_set(ds, lam, config)
    save_model(model, args.out)
    for c, trained in enumerate(model.matrices, start=1):
        rep = trained.report
        print(json.dumps({
            "class": c,
            "iterations": rep.iterations,
            "dual_objective": rep.dual_objective,
            "primal_objective": rep.primal_objective,
            "gap": rep.duality_gap,
            "converged": rep.converged,
            "termination": rep.termination,
        }))
        if not rep.converged:
            print(f"warning: class {c} did not converge "
                  f"({rep.termination}, grad {rep.grad_inf_norm:.3g})", file=sys.stderr)
    print(json.dumps({"model": args.out, "classes": model.class_count, "lambda": lam}))
    return 0


def _protocol_lambda(args, train_ds, config) -> float:
    if args.lam is not None:
        return args.lam
    grid = args.cv_grid if args.cv_grid is not None else DEFAULT_LAMBDA_GRID
    lam, _ = cross_validate_lambda(
        train_ds, grid, folds=args.folds, config=config, seed=args.seed
    )
    return lam


def cmd_eval(args) -> int:
    config = _solver_config(args)
    if args.protocol:
        if args.model is not None:
            raise InvalidInputError("--protocol retrains; it cannot take --model")
        if args.m_train is None:
            raise InvalidInputError("--protocol needs --m-train")
        ds, _ = load_csv(args.data)
        spec = SplitSpec(per_class_train=args.m_train, seed=args.seed)
        errors = {"max": [], "nn_cosine": []}
        for r in range(args.reps):
            train_ds, test_ds = split_random(ds, spec, r)
            lam = _protocol_lambda(args, train_ds, config)
            model = train_model_set(train_ds, lam, config)
            for rule in ("max", "nn_cosine"):
                errors[rule].append(evaluate(model, test_ds, rule).error_rate)
        summary = {
            rule: {"mean_error": float(np.mean(v)), "std_error": float(np.std(v))}
            for rule, v in errors.items()
        }
        if args.json:
            print(json.dumps({"mode": "protocol", "reps": args.reps, **summary}))
        else:
            print(f"protocol: {args.reps} repetitions, {args.m_train} per class to train")
            for rule in ("max", "nn_cosine"):
                s = summary[rule]
                print(f"  {rule:<10} {100 * s['mean_error']:6.2f}% "
                      f"+/- {100 * s['std_error']:.2f}%")
        return 0

    if args.model is None:
        raise InvalidInputError("give --model, or --protocol for the split protocol")
    model = load_model(args.model)
    test, _ = load_csv(args.data)
    results = {rule: evaluate(model, test, rule) for rule in ("max", "nn_cosine")}
    if args.json:
        print(json.dumps({
            "mode": "single",
            "n": test.n,
            **{rule: {"error": res.error_rate} for rule, res in results.items()},
        }))
    else:
        print(f"evaluated {test.n} samples")
        for rule, res in results.items():
            print(f"  {rule:<10} {100 * res.error_rate:6.2f}% error")
    return 0


def _fd_dual_gradient(prob, u: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(u)
    for i in range(u.size):
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        g[i] = (dual_objective(prob, up) - dual_objective(prob, um)) / (2 * h)
    return g


def cmd_diagnose(args) -> int:
    if args.grid_oracle and args.dim != 2:
        raise InvalidInputError("--grid-oracle needs --dim 2")
    lam = args.lam if args.lam is not None else (0.1 if args.grid_oracle else 1.0)
    n_intra = args.n_intra if args.n_intra is not None else (5 if args.grid_oracle else 12)
    n_extra = args.n_extra if args.n_extra is not None else (4 if args.grid_oracle else 24)
    spread = 0.25 if args.grid_oracle else 0.5
    config = _solver_config(args)

    checks = []  # (instance, name, value, tolerance, passed)

    def record(i, name, value, tol):
        checks.append({
            "instance": i,
            "check": name,
            "value": float(value),
            "tolerance": float(tol),
            "pass": bool(value <= tol),
        })

    for i in range(args.random_instances):
        rng = np.random.default_rng([args.seed, i])
        prob = random_class_problem(
            rng, dim=args.dim, n_intra=n_intra, n_extra=n_extra,
            lam=lam, spread=spread,
        )

        u = rng.uniform(0.25, 2.0, size=n_intra)
        g = dual_gradient(prob, u)
        if args.perturb_grad:
            g = g + 1e-3 * (1.0 + np.abs(g))
        g_fd = _fd_dual_gradient(prob, u)
        rel = float(np.max(np.abs(g - g_fd))) / max(1.0, float(np.max(np.abs(g_fd))))
        record(i, "gradient_fd_rel_error", rel, FD_TOL)

        trained = solve_dual(prob, config)
        rep = kkt_report(prob, trained.dual, trained.matrix)
        record(i, "duality_gap", abs(rep.duality_gap),
               GAP_TOL * max(1.0, abs(rep.primal_objective)))
        record(i, "feasibility_violation", rep.max_violation, VIOLATION_TOL)
        record(i, "complementary_slackness", rep.complementary_slackness, SLACKNESS_TOL)
        record(i, "negative_eigenvalue", max(0.0, -rep.min_eigenvalue), PSD_CERT_TOL)

        primal = trained.report.primal_objective
        if args.grid_oracle:
            grid = solve_primal_grid(prob, step=args.step)
            record(i, "grid_objective_difference",
                   abs(grid.objective - primal), 2.0 * args.step)
        if args.penalty_oracle:
            pen = solve_primal_penalty(prob)
            record(i, "penalty_objective_difference", abs(pen.objective - primal),
                   PENALTY_AGREEMENT_TOL * max(1.0, abs(primal)))

    failures = [c for c in checks if not c["pass"]]
    if args.json:
        print(json.dumps({
            "instances": args.random_instances,
            "dim": args.dim,
            "checks": checks,
            "failures": len(failures),
        }))
    else:
        worst: dict[str, dict] = {}
        for c in checks:
            cur = worst.get(c["check"])
            if cur is None or c["value"] > cur["value"]:
                worst[c["check"]] = c
        print(f"{args.random_instances} instances at dim {args.dim}: "
              f"{len(checks)} checks, {len(failures)} failed")
        print(f"  {'check':<30} {'worst':>12} {'tolerance':>12}")
        for name, c in worst.items():
            print(f"  {name:<30} {c['value']:>12.3e} {c['tolerance']:>12.3e}")
        for c in failures:
            print(f"  FAIL instance {c['instance']}: {c['check']} "
                  f"{c['value']:.3e} > {c['tolerance']:.3e}")
    return 4 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, ModelIOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleProblemError, UnboundedProblemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
