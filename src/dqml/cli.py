"""Command-line front end.

Subcommands: ``synth`` writes a synthetic Gaussian dataset, ``train`` fits
per-class matrices at one λ or at the one cross-validation picks from a list,
``eval`` scores a saved model, ``protocol`` runs the repeated-split
experiment, and ``diagnose`` runs the solver's self-checks (finite-difference
gradients, KKT residuals, and reference-solver comparisons). Every
subcommand prints standard JSON to stdout, one object per line, with null
for a value that is not finite; errors and warnings go to stderr. A flag
that a subcommand would not act on is a usage error.

Exit codes: 0 success, 2 usage or parse problems, 3 infeasible problem,
4 diagnostic failure, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace

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
)
from .oracle import solve_primal_grid, solve_primal_penalty
from .pipeline import (
    Dataset,
    cross_validate_lambda,
    evaluate,
    load_model,
    save_model,
    train_model_set,
)
from .qml import (
    dual_gradient,
    dual_objective,
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
# SolveReport fields that train prints beside the model file's solve summary.
_TRAIN_ONLY_FIELDS = ("dual_objective", "primal_objective", "complementary_slackness",
                      "min_eigenvalue", "converged", "seconds")


def _print_json(obj) -> None:
    """Print obj as one line of standard JSON, with null for inf and nan."""
    obj = json.loads(json.dumps(obj), parse_constant=lambda _: None)  # NaN, Infinity
    print(json.dumps(obj, allow_nan=False))


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


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} must be a non-negative integer")
    return value


def _lambda_grid(text: str) -> tuple[float, ...]:
    tokens = text.split(",")
    if not all(tok.strip() for tok in tokens):
        raise argparse.ArgumentTypeError(
            f"grid values must be positive numbers; {text!r} has an empty item"
        )
    try:
        grid = tuple(float(tok) for tok in tokens)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}") from None
    if any(not (np.isfinite(g) and g > 0) for g in grid):
        raise argparse.ArgumentTypeError("grid values must be positive numbers")
    return grid


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
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one PSD matrix per class")
    p.add_argument("--data", required=True, help="training CSV (label,v1,...,vm)")
    p.add_argument("--lambda", dest="lam", type=_lambda_grid, required=True,
                   help="one value, or a comma list that cross-validation picks from")
    p.add_argument("--folds", type=_positive_int, help="CV folds for a --lambda list (default 10)")
    p.add_argument("-o", "--out", required=True, help="model file to write")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved model")
    p.add_argument("--data", required=True, help="CSV to evaluate on")
    p.add_argument("--model", required=True, help="model file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("protocol",
                       help="repeatedly split, retrain, and report mean/std error")
    p.add_argument("--data", required=True, help="CSV to split")
    p.add_argument("--m-train", type=_positive_int, required=True,
                   help="training samples per class")
    p.add_argument("--reps", type=_positive_int, default=30)
    p.add_argument("--lambda", dest="lam", type=_lambda_grid, default=DEFAULT_LAMBDA_GRID,
                   help="as for train, on each split; default %(default)s")
    p.add_argument("--folds", type=_positive_int, help="CV folds for a --lambda list (default 10)")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("diagnose", help="solver self-checks on random instances")
    p.add_argument("--random-instances", type=_positive_int, default=10)
    p.add_argument("--dim", type=_positive_int, default=6)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--grid-oracle", dest="grid_step", nargs="?", type=_positive_float,
                   const=0.01, metavar="STEP",
                   help="compare against the exhaustive 2-d grid at resolution STEP "
                   "(default 0.01; dim must be 2); instances shrink so the grid "
                   "bracket covers the optimum")
    p.add_argument("--penalty-oracle", action="store_true",
                   help="compare against the penalty-method reference solver")
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
    sidecar = write_sidecar(args.out, {"rows": ds.n, **asdict(spec)})
    _print_json({"path": args.out, "sidecar": str(sidecar), "rows": ds.n})
    return 0


def _cv_folds(args) -> int:
    """--folds (10 if not given) for a --lambda list; refused beside one value."""
    if args.folds is not None and len(args.lam) == 1:
        raise InvalidInputError("--folds needs several --lambda values to cross-validate")
    return args.folds or 10


def _pick_lambda(args, ds, folds: int, seed: int = 0) -> tuple[float, list[dict] | None]:
    """--lambda's one value and no table, or the value cross_validate_lambda
    picks from the list and one JSON object per grid value."""
    if len(args.lam) == 1:
        return args.lam[0], None
    lam, table = cross_validate_lambda(ds, args.lam, folds=folds, seed=seed)
    return lam, [{"lambda": e.lam, "mean_error": e.mean_error, "unconverged": e.unconverged,
                  "worst_grad_inf_norm": e.worst_grad_inf_norm} for e in table]


def cmd_train(args) -> int:
    folds = _cv_folds(args)
    ds, relabel = load_csv(args.data)

    lam, cv = _pick_lambda(args, ds, folds)
    if cv is not None:
        _print_json({"selected_lambda": lam, "cv": cv})

    model = replace(train_model_set(ds, lam), class_labels=tuple(relabel))
    save_model(model, args.out)
    for c, trained in enumerate(model.matrices, start=1):
        rep = trained.report
        _print_json({
            "class": c,
            "label": model.class_labels[c - 1],
            **model.summaries[c - 1],
            **{k: getattr(rep, k) for k in _TRAIN_ONLY_FIELDS},
        })
        if not rep.converged:
            print(f"warning: class {c} did not converge "
                  f"({rep.termination}, grad {rep.grad_inf_norm:.3g})", file=sys.stderr)
    _print_json({"model": args.out, "classes": model.class_count, "lambda": lam})
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    test, relabel = load_csv(args.data)
    # Number the test file's labels as the model numbers its classes.
    index = {label: c for c, label in enumerate(model.class_labels, start=1)}
    if unknown := sorted(set(relabel) - set(index)):
        raise InvalidInputError(f"{args.data}: labels {unknown} are not classes of the model")
    test = Dataset(test.samples, np.array([index[label] for label in relabel])[test.labels - 1])
    results, seconds = {}, {}
    for rule in ("max", "nn_cosine"):
        t0 = time.perf_counter()
        results[rule] = evaluate(model, test, rule)
        seconds[rule] = time.perf_counter() - t0
    _print_json({
        "mode": "single",
        "n": test.n,
        **{
            rule: {
                "error": res.error_rate,
                "seconds": seconds[rule],
                "us_per_sample": 1e6 * seconds[rule] / test.n,
            }
            for rule, res in results.items()
        },
        "classes": [{"label": label, **summary} for label, summary in
                    zip(model.class_labels, model.summaries or [{}] * model.class_count)],
    })
    return 0


def cmd_protocol(args) -> int:
    folds = _cv_folds(args)
    ds, _ = load_csv(args.data)
    spec = SplitSpec(per_class_train=args.m_train, seed=args.seed)
    errors = {"max": [], "nn_cosine": []}
    lambdas, cv_tables = [], []
    for r in range(args.reps):
        train_ds, test_ds = split_random(ds, spec, r)
        lam, cv = _pick_lambda(args, train_ds, folds, args.seed)
        lambdas.append(lam)
        cv_tables.append(cv)
        model = train_model_set(train_ds, lam)
        for rule in ("max", "nn_cosine"):
            errors[rule].append(evaluate(model, test_ds, rule).error_rate)
    summary = {
        rule: {"mean_error": float(np.mean(v)), "std_error": float(np.std(v))}
        for rule, v in errors.items()
    }
    _print_json({
        "mode": "protocol", "reps": args.reps, "lambdas": lambdas,
        "cv": cv_tables if len(args.lam) > 1 else None, **summary
    })
    return 0


def _fd_dual_gradient(prob, u: np.ndarray) -> np.ndarray:
    h = 1e-6
    g = np.zeros_like(u)
    for i in range(u.size):
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        g[i] = (dual_objective(prob, up) - dual_objective(prob, um)) / (2 * h)
    return g


def cmd_diagnose(args) -> int:
    if args.grid_step and args.dim != 2:
        raise InvalidInputError("--grid-oracle needs --dim 2")
    lam, n_intra, n_extra, spread = (0.1, 5, 4, 0.25) if args.grid_step else (1.0, 12, 24, 0.5)

    checks = []  # one object per instance and check

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
        g_fd = _fd_dual_gradient(prob, u)
        rel = float(np.max(np.abs(g - g_fd))) / max(1.0, float(np.max(np.abs(g_fd))))
        record(i, "gradient_fd_rel_error", rel, FD_TOL)

        rep = solve_dual(prob).report
        record(i, "suboptimality", rep.suboptimality,
               GAP_TOL * max(1.0, abs(rep.dual_objective)))
        record(i, "feasibility_violation", rep.max_violation, VIOLATION_TOL)
        record(i, "complementary_slackness", rep.complementary_slackness, SLACKNESS_TOL)
        record(i, "negative_eigenvalue", max(0.0, -rep.min_eigenvalue), PSD_CERT_TOL)

        primal = rep.primal_objective
        if args.grid_step:
            grid = solve_primal_grid(prob, step=args.grid_step)
            record(i, "grid_objective_difference",
                   abs(grid.objective - primal), 2.0 * args.grid_step)
        if args.penalty_oracle:
            pen = solve_primal_penalty(prob)
            record(i, "penalty_objective_difference", abs(pen.objective - primal),
                   PENALTY_AGREEMENT_TOL * max(1.0, abs(primal)))

    failures = sum(not c["pass"] for c in checks)
    _print_json({
        "instances": args.random_instances,
        "dim": args.dim,
        "checks": checks,
        "failures": failures,
    })
    return 4 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, ModelIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
