"""Reference solvers used to certify the dual solver on small instances.

Two independent routes to the constrained primal

    minimize (1/2)||P||_F^2 + lam * tr(P O)
    s.t.     x_i^T P x_i >= b,  P PSD

are provided: an exhaustive grid search over the three free entries of a
2 x 2 symmetric matrix, and a quadratic-penalty method with projected
gradient descent for small dimensions. A third solver minimizes the
unregularized criterion tr(P O) under the same constraints, which is the
natural objective when no Frobenius regularizer is wanted; it is unbounded
below exactly when the scatter has a negative part, which is refused up front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, UnboundedProblemError
from .qml import ClassProblem, _max_violation
from .symmat import SymmetricMatrix, _spectral_part, negative_part, quad_forms

DEFAULT_SCHEDULE = (1.0, 10.0, 100.0, 1000.0, 10000.0)
MAX_INNER_STEPS = 2000
INNER_TOL = 1e-10  # relative step size that ends a penalty stage
GRID_PSD_TOL = 1e-9
# Most grid steps across the bracket: the search costs (bracket/step)^3 in time
# and (bracket/step)^2 in memory, 9.2 s and 69 MB peak RSS at this many on one
# core of a 2-core host.
GRID_MAX_STEPS = 600


@dataclass(frozen=True)
class OracleResult:
    """Output of a reference solver.

    stage_violations records the worst constraint violation after each
    penalty stage (empty for grid).
    """

    matrix: SymmetricMatrix
    objective: float
    max_violation: float
    stage_violations: tuple[float, ...] = ()


def solve_primal_grid(problem: ClassProblem, step: float = 0.01) -> OracleResult:
    """Exhaustive search over 2 x 2 matrices [[a, c], [c, d]] on a grid.

    a and d range over [0, h], c over [-h, h], all in multiples of ``step``,
    with the bracket h = 3*b*max_i(1/||x_i||^2): the single-constraint
    optimum has norm b/||x||^2, so tripling the largest such scale brackets
    where practical optima live. Candidates must be PSD (smallest eigenvalue
    >= -1e-9 by the 2 x 2 closed form) and satisfy every constraint. Returns
    the first grid point attaining the minimal objective in (a, c, d) scan
    order, so results are deterministic. A step that puts more than
    GRID_MAX_STEPS steps across the bracket is refused; the error names the
    smallest step accepted, h/GRID_MAX_STEPS.

    A step above h is refused, so the largest grid value a is at least h/2,
    and diag(a, a) is a PSD grid point with x_i^T P x_i >= 1.5*b for every
    sample: the grid always holds a feasible point.
    """
    if problem.dim != 2:
        raise InvalidInputError(f"grid oracle requires dimension 2, got {problem.dim}")
    bracket = 3.0 * problem.margin * float(np.max(1.0 / problem.sq_norms))
    if not (np.isfinite(step) and step > 0):
        raise InvalidInputError("step must be positive and finite")
    if bracket < step:
        raise InvalidInputError(f"step must be at most the grid bracket {bracket:g}")

    # Multiples of step so that halving the step yields a supergrid.
    n_steps = np.floor(bracket / step + 1e-12)
    if n_steps > GRID_MAX_STEPS:
        raise InvalidInputError(
            f"step {step:g} puts {n_steps:.0f} steps across the grid bracket {bracket:g}; "
            f"the smallest step accepted is {bracket / GRID_MAX_STEPS:g}"
        )
    n_steps = int(n_steps)
    pos = np.arange(n_steps + 1) * step
    cvals = np.concatenate([-pos[:0:-1], pos])

    x = problem.intra
    b = problem.margin
    lam = problem.lam
    o = problem.extra_scatter.entries
    x1sq = x[:, 0] ** 2
    x2sq = x[:, 1] ** 2
    x12 = x[:, 0] * x[:, 1]

    c = cvals[:, None]
    d = pos[None, :]
    best_obj = np.inf
    best_adc = None

    for a in pos:
        # Feasibility of every constraint a*x1^2 + 2c*x1*x2 + d*x2^2 >= b.
        ok = np.ones((cvals.size, pos.size), dtype=bool)
        for i in range(x.shape[0]):
            q = a * x1sq[i] + 2.0 * c * x12[i] + d * x2sq[i]
            ok &= q >= b
            if not ok.any():
                break
        if not ok.any():
            continue
        # PSD by the closed-form smallest eigenvalue of [[a, c], [c, d]].
        min_eig = 0.5 * (a + d) - np.sqrt((0.5 * (a - d)) ** 2 + c * c)
        ok &= min_eig >= -GRID_PSD_TOL
        if not ok.any():
            continue
        obj = 0.5 * (a * a + 2.0 * c * c + d * d) + lam * (
            o[0, 0] * a + 2.0 * o[0, 1] * c + o[1, 1] * d
        )
        obj = np.where(ok, obj, np.inf)
        flat = int(np.argmin(obj))
        val = float(obj.flat[flat])
        if val < best_obj:
            best_obj = val
            ci, di = np.unravel_index(flat, obj.shape)
            best_adc = (a, float(cvals[ci]), float(pos[di]))

    a, cval, dval = best_adc
    p = SymmetricMatrix(np.array([[a, cval], [cval, dval]]))
    return OracleResult(
        matrix=p,
        objective=best_obj,
        max_violation=_max_violation(problem, p.entries),
    )


def _penalty_solve(problem: ClassProblem, quad: float, lin: float) -> OracleResult:
    """Quadratic-penalty solve with the smooth part quad*(1/2)||P||^2 +
    lin*tr(P O).

    Each stage minimizes the smooth part plus rho * sum_i
    max(0, b - x_i^T P x_i)^2 by gradient descent with a PSD projection
    after every step; rho runs over DEFAULT_SCHEDULE. A final rescale makes
    the worst constraint hold exactly.
    """
    x = problem.intra
    b = problem.margin
    o = problem.extra_scatter.entries
    smooth_grad_const = lin * o

    def smooth(p: np.ndarray) -> float:
        return 0.5 * quad * float(np.sum(p * p)) + lin * float(np.sum(p * o))

    gram = x @ x.T
    ghat_lmax = float(np.linalg.eigvalsh(gram * gram)[-1])

    p = np.zeros((problem.dim, problem.dim))
    stage_violations: list[float] = []
    for rho in DEFAULT_SCHEDULE:
        step = 1.0 / max(quad + 2.0 * rho * ghat_lmax, 1e-12)
        for _ in range(MAX_INNER_STEPS):
            viol = np.maximum(b - quad_forms(p, x), 0.0)
            grad = smooth_grad_const - 2.0 * rho * (x.T * viol) @ x + quad * p
            p_next = p - step * grad
            p_next = _spectral_part((p_next + p_next.T) / 2.0, negative=False)
            if not np.isfinite(smooth(p_next)):
                raise NumericalFailureError("penalty oracle objective became non-finite")
            moved = float(np.linalg.norm(p_next - p))
            p = p_next
            if moved <= INNER_TOL * (1.0 + float(np.linalg.norm(p))):
                break
        stage_violations.append(_max_violation(problem, p))

    # Scale up the matrix so the worst constraint holds exactly.
    worst = float(np.min(quad_forms(p, x)))
    if worst <= 0.0:
        raise NumericalFailureError(
            "penalty oracle did not reach the feasible region; cannot polish"
        )
    if worst < b:
        p = p * (b / worst)
    return OracleResult(
        matrix=SymmetricMatrix((p + p.T) / 2.0),
        objective=smooth(p),
        max_violation=_max_violation(problem, p),
        stage_violations=tuple(stage_violations),
    )


def solve_primal_penalty(problem: ClassProblem) -> OracleResult:
    """Quadratic-penalty solve of the regularized primal (1/2)||P||^2 +
    lam*tr(P O): projected gradient descent at each penalty weight in
    DEFAULT_SCHEDULE, then a rescale so the worst constraint holds exactly."""
    return _penalty_solve(problem, 1.0, problem.lam)


def solve_unregularized(problem: ClassProblem) -> OracleResult:
    """Penalty solve of the unregularized criterion tr(P O) under the same
    constraints.

    Without the Frobenius term the objective is linear, so boundedness
    depends on the data; an O with a negative part raises UnboundedProblemError.
    """
    # A feasible P exists, and P + t*v*v^T stays feasible for any eigenvector
    # v of O, so tr(P O) is unbounded below iff O has a negative eigenvalue.
    if negative_part(problem.extra_scatter).entries.any():
        raise UnboundedProblemError("O has a negative eigenvalue: tr(P O) is unbounded below")
    return _penalty_solve(problem, 0.0, 1.0)
