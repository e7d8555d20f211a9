"""Correctness checks on dqml's outputs, computed with plain numpy.

Nothing here calls dqml: each check recomputes a quantity from the arrays
dqml returned (class matrices, dual multipliers, samples, labels) or tests a
property the method must have. Every function returns a list of failure
messages; an empty list means the check passed.
"""

from __future__ import annotations

import numpy as np

PSD_TOL = 1e-8
GAP_RTOL = 1e-5  # converged solves: |primal - dual| <= GAP_RTOL * max(1, |primal|)
VIOLATION_TOL = 1e-4  # converged solves: max(b - x^T P x) <= VIOLATION_TOL
MATCH_RTOL = 1e-8  # recomputed objective versus the solver's report
MAX_ERROR = 0.05


def psd(name: str, p: np.ndarray) -> list[str]:
    lo = float(np.linalg.eigvalsh(p)[0])
    return [] if lo >= -PSD_TOL else [f"{name}: min eigenvalue {lo:.3g} < -{PSD_TOL}"]


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= MATCH_RTOL * max(1.0, abs(scale))


def solve_certificate(
    name: str,
    intra: np.ndarray,
    extra_scatter: np.ndarray,
    lam: float,
    margin: float,
    p: np.ndarray,
    u: np.ndarray,
    report,
) -> list[str]:
    """Recompute primal, dual, gap and violation of one class solve.

    ``report`` is the solver's SolveReport; its primal objective, gap and
    violation must match the recomputation, and a solve that reports
    convergence must meet the gap and violation tolerances.
    """
    fails = psd(name, p)
    primal = 0.5 * float(np.sum(p * p)) + lam * float(np.sum(p * extra_scatter))
    m = lam * extra_scatter - (intra.T * u) @ intra
    w = np.linalg.eigvalsh((m + m.T) / 2.0)
    neg = np.minimum(w, 0.0)
    dual = -0.5 * float(neg @ neg) + margin * float(np.sum(u))
    quad = np.einsum("ij,jk,ik->i", intra, p, intra)
    violation = float(np.max(np.maximum(margin - quad, 0.0)))
    if not _close(primal, report.primal_objective, primal):
        fails.append(f"{name}: primal {primal!r} != reported {report.primal_objective!r}")
    if not _close(primal - dual, report.duality_gap, primal):
        fails.append(f"{name}: gap {primal - dual!r} != reported {report.duality_gap!r}")
    if not _close(violation, report.max_violation, margin):
        fails.append(
            f"{name}: violation {violation!r} != reported {report.max_violation!r}"
        )
    if report.converged:
        if abs(primal - dual) > GAP_RTOL * max(1.0, abs(primal)):
            fails.append(f"{name}: converged with gap {primal - dual:.3g}")
        if violation > VIOLATION_TOL:
            fails.append(f"{name}: converged with violation {violation:.3g}")
    return fails


def scatter_of_others(x: np.ndarray, y: np.ndarray, c: int) -> np.ndarray:
    """sum of x_j x_j^T over the samples not labelled c."""
    rest = x[y != c]
    return rest.T @ rest


def features(matrices: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """(n, C) matrix of quadratic forms x_i^T P_c x_i."""
    return np.stack([np.einsum("ij,jk,ik->i", x, p, x) for p in matrices], axis=1)


def predict(
    rule: str,
    feats: np.ndarray,
    train_feats: np.ndarray,
    train_labels: np.ndarray,
) -> np.ndarray:
    """Labels by the max rule or by cosine nearest neighbour.

    feats is (n, C); train_feats is (n_train, C). Ties go to the smallest
    class (max rule) or the first training sample (cosine NN).
    """
    if rule == "max":
        return np.argmax(feats, axis=1) + 1
    tn = np.linalg.norm(train_feats, axis=1)
    qn = np.linalg.norm(feats, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (feats @ train_feats.T) / np.outer(qn, tn)
    cos[:, tn == 0.0] = -np.inf
    return train_labels[np.argmax(cos, axis=1)]


def confusion(truth: np.ndarray, pred: np.ndarray, classes: int) -> np.ndarray:
    out = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(out, (truth - 1, pred - 1), 1)
    return out


def classification(
    name: str,
    matrices: list[np.ndarray],
    train_feats: np.ndarray,
    train_labels: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    reported: dict,
) -> list[str]:
    """Recompute both rules' confusion matrices from the class matrices.

    ``reported`` maps rule -> confusion matrix from dqml; each must match
    exactly, and each rule's error rate must not exceed MAX_ERROR.
    """
    fails = []
    feats = features(matrices, x)
    for rule, got in reported.items():
        want = confusion(y, predict(rule, feats, train_feats, train_labels), len(matrices))
        if not np.array_equal(want, got):
            fails.append(f"{name}: {rule} confusion differs from the recomputation")
        error = 1.0 - np.trace(want) / y.size
        if error > MAX_ERROR:
            fails.append(f"{name}: {rule} error {error:.3f} > {MAX_ERROR}")
    return fails


def lambda_choice(grid, fold_errors: list[list[float]], chosen: float) -> list[str]:
    """The chosen value has the lowest mean CV error; ties go to the smaller."""
    means = [float(np.mean(f)) for f in fold_errors]
    best = min(zip(means, grid))[1]
    return [] if best == chosen else [f"lambda {chosen} chosen, lowest CV error is at {best}"]


def same_arrays(name: str, a: list[np.ndarray], b: list[np.ndarray]) -> list[str]:
    if len(a) != len(b) or not all(np.array_equal(p, q) for p, q in zip(a, b)):
        return [f"{name}: arrays differ"]
    return []
