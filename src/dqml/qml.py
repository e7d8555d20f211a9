"""Dual solver for per-class quadratic matrices.

For one class with intra-class samples x_1..x_n and an extra-class scatter
matrix O, the trained matrix is the PSD minimizer of

    (1/2) ||P||_F^2 + lam * tr(P O)    s.t.   x_i^T P x_i >= b  for all i.

The solver maximizes the Lagrange dual

    D(u) = -(1/2) ||M(u)_-||_F^2 + b * sum(u),    u >= 0,

where M(u) = lam*O - sum_i u_i x_i x_i^T and M_- is the negative spectral
part of M. The optimizer is a projected L-BFGS with Armijo backtracking; the
trained matrix is recovered in closed form as P = -M(u*)_-. Each combined
objective/gradient evaluation costs exactly one dense eigendecomposition.
The backtracking evaluates a trial step only if the Armijo test could accept
it: a trial whose lower bound on -D, taken from the current point's spectrum,
already fails the test is rejected unevaluated.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleProblemError, InvalidInputError, NumericalFailureError
from .symmat import (
    SymmetricMatrix,
    _clamped_part,
    _eigh_descending,
    eig_call_count,
    min_eigenvalue,
    quad_forms,
)

_CURVATURE_RTOL = 1e-10
_MAX_BACKTRACKS = 60
_MEMORY = 10  # L-BFGS (s, y) pairs kept
_LINE_SEARCH_SHRINK = 0.5
_ARMIJO_C = 1e-4
_EPS = float(np.finfo(float).eps)

# The stopping rule of solve_dual, read at each call: stop once the projected
# gradient's max norm is at most GRAD_TOL * max(1, margin), or after
# MAX_ITERATIONS steps.
MAX_ITERATIONS = 500
GRAD_TOL = 1e-7


def build_scatter(samples: np.ndarray) -> SymmetricMatrix:
    """Scatter matrix sum_j x_j x_j^T of the given sample rows.

    Rows are put into a canonical order before accumulation so the result is
    bit-identical under any permutation of the input.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise InvalidInputError(f"expected a 2-d sample array, got shape {x.shape}")
    if x.shape[0] == 0:
        dim = x.shape[1]
        if dim < 1:
            raise InvalidInputError("sample dimension must be at least 1")
        return SymmetricMatrix(np.zeros((dim, dim)))
    if not np.isfinite(x).all():
        raise InvalidInputError("samples have non-finite entries")
    order = np.lexsort(x.T[::-1])
    xs = x[order]
    # Huge samples overflow to non-finite entries, which ClassProblem refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        s = xs.T @ xs
        s = (s + s.T) / 2.0
    return SymmetricMatrix(s)


@dataclass(frozen=True)
class ClassProblem:
    """One class's training problem.

    intra: (n, m) array, one intra-class sample per row.
    extra_scatter: m x m scatter matrix of the other classes' samples.
    lam: weight of the tr(P O) regularizer, > 0.
    margin: required value b of x^T P x on intra-class samples, > 0.
    """

    intra: np.ndarray
    extra_scatter: SymmetricMatrix
    lam: float
    margin: float = 1.0

    def __post_init__(self) -> None:
        x = np.array(self.intra, dtype=float, copy=True)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise InvalidInputError(
                f"intra must be a nonempty 2-d sample array, got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise InvalidInputError("intra samples have non-finite entries")
        if self.extra_scatter.dim != x.shape[1]:
            raise InvalidInputError(
                f"extra_scatter is {self.extra_scatter.dim}-dimensional, "
                f"samples are {x.shape[1]}-dimensional"
            )
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise InvalidInputError(f"lam must be positive and finite, got {self.lam}")
        if not (np.isfinite(self.margin) and self.margin > 0):
            raise InvalidInputError(f"margin must be positive and finite, got {self.margin}")
        x.flags.writeable = False
        object.__setattr__(self, "intra", x)
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "margin", float(self.margin))
        with np.errstate(over="ignore"):
            lam_o = self.lam * self.extra_scatter.entries
        if not np.isfinite(lam_o).all():
            raise InvalidInputError("lam * extra_scatter has non-finite entries")

    @property
    def n_intra(self) -> int:
        return self.intra.shape[0]

    @property
    def dim(self) -> int:
        return self.intra.shape[1]


@dataclass(frozen=True)
class DualVariables:
    """Nonnegative Lagrange multipliers, one per intra-class sample."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 1:
            raise InvalidInputError(f"dual variables must be 1-d, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise InvalidInputError("dual variables have non-finite entries")
        if (v < 0).any():
            raise InvalidInputError("dual variables must be nonnegative")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SolveReport:
    """How a solve_dual run ended, measured at the returned multipliers.

    ``termination`` names the exit taken: "converged" (grad_inf_norm <=
    GRAD_TOL * max(1, margin) there), "max_iterations" or
    "line_search_failed". ``iterations`` counts the steps attempted,
    including a last one whose line search failed. ``objective_evals``
    counts the points evaluated: the start and the line-search trials that
    were evaluated, not those rejected unevaluated. ``eig_calls`` counts
    the eigendecompositions made meanwhile, one per evaluation.
    """

    iterations: int
    termination: str
    dual_objective: float
    primal_objective: float
    duality_gap: float
    grad_inf_norm: float
    max_violation: float
    objective_evals: int
    eig_calls: int

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


@dataclass(frozen=True)
class TrainedQuadraticMatrix:
    """A trained PSD matrix with its dual certificate and solve diagnostics.

    ``dual`` and ``report`` are None for matrices loaded from disk; the model
    file stores only what classification needs.
    """

    matrix: SymmetricMatrix
    dual: DualVariables | None
    report: SolveReport | None


@dataclass(frozen=True)
class KktReport:
    """Optimality measurements for a (problem, dual, matrix) triple."""

    grad_inf_norm: float
    max_violation: float
    complementary_slackness: float
    duality_gap: float
    min_eigenvalue: float
    dual_objective: float
    primal_objective: float


def _assemble(problem: ClassProblem, u: np.ndarray) -> np.ndarray:
    """The raw array of M(u) = lam*O - sum_i u_i x_i x_i^T."""
    x = problem.intra
    m = problem.lam * problem.extra_scatter.entries - (x.T * u) @ x
    return (m + m.T) / 2.0


def _dual_state(problem: ClassProblem, u: np.ndarray):
    """D(u), its gradient, and the spectrum of M(u).

    The one place the dual is evaluated: exactly one eigendecomposition per
    call. Returns (dual_value, dual_gradient, eigenvectors,
    negative_eigenvalues, eigenvalues, y2), eigenvalues descending, where
    y2 = (X V)^2 holds the squared coordinates of the samples in the
    eigenbasis.
    """
    m = _assemble(problem, u)
    if not np.isfinite(m).all():
        raise NumericalFailureError("dual matrix M(u) has non-finite entries")
    try:
        w, v = _eigh_descending(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("eigendecomposition of M(u) failed") from exc
    neg = _clamped_part(w, negative=True)
    b = problem.margin
    dual = -0.5 * float(neg.dot(neg)) + b * float(u.sum())
    y2 = np.square(problem.intra @ v)
    grad = b + y2 @ neg
    return dual, grad, v, neg, w, y2


def _f_lower_bound(
    problem: ClassProblem,
    w: np.ndarray,
    y2: np.ndarray,
    u: np.ndarray,
    u_new: np.ndarray,
    sq_norms: np.ndarray,
    lam_o_norm: float,
) -> float:
    """A lower bound on the f = -D(u_new) that _dual_state would compute,
    from the spectrum w and y2 of M(u) at the point u, without an
    eigendecomposition. sq_norms holds ||x_i||^2 and lam_o_norm ||lam O||_F.

    ||M_-||_F^2 is the squared distance from M to the PSD cone, and the cone
    lies inside {A : diag(V^T A V) >= 0} for any orthonormal V. So
    ||M(u_new)_-||^2 >= sum_k min(0, v_k^T M(u_new) v_k)^2, and
    v_k^T M(u_new) v_k = w_k - (delta . y2)_k with delta = u_new - u. Hence
    f(u_new) >= (1/2)||min(0, w - delta . y2)||^2 - b sum(u_new) =: LB.

    The value returned is LB - tau, where tau covers the rounding of both
    computations. With S = ||lam O||_F + sum_i max(u_i, u_new_i) ||x_i||^2,
    which bounds ||M||_F at u and at u_new, and constants of order one
    dropped:
    - eigh is backward stable: w and V are exact for a matrix within
      m eps S of M, and V is orthonormal to m eps. So each term
      w_k - (delta . y2)_k, and each computed eigenvalue of M(u_new), is
      within m eps S of its exact value; over m terms of size <= S the
      squared norms move by <= m^2 eps S^2.
    - assembling M(u) and M(u_new), and the product delta . y2, add n terms
      whose sizes sum to <= S: n eps S per entry, n eps S^2 in the squared
      norms.
    - the clamp band zeroes eigenvalues with |w_k| <= 1e-10 max|w|, which
      lowers the computed ||M_-||^2 by <= m (1e-10 S)^2 < m eps S^2.
    - the subtraction of b sum(u_new), the same float on both sides, rounds
      by <= eps (S^2 + b sum(u_new)).
    So tau = eps ((m^2 + n) S^2 + 2 b sum(u_new)).
    """
    n, m = y2.shape
    z = np.minimum(w - (u_new - u) @ y2, 0.0)
    s = lam_o_norm + float(np.maximum(u, u_new).dot(sq_norms))
    linear = problem.margin * float(u_new.sum())
    tau = _EPS * ((m * m + n) * s * s + 2.0 * linear)
    return 0.5 * float(z.dot(z)) - linear - tau


def _primal_from(v: np.ndarray, neg: np.ndarray) -> SymmetricMatrix:
    """P = -M_- from the eigenvectors and negative eigenvalues of M."""
    p = (v * -neg) @ v.T
    return SymmetricMatrix((p + p.T) / 2.0)


def assemble_m(problem: ClassProblem, u: np.ndarray) -> SymmetricMatrix:
    """The dual matrix M(u) = lam*O - sum_i u_i x_i x_i^T."""
    return SymmetricMatrix(_assemble(problem, _check_dual_point(problem, u)))


def dual_objective(problem: ClassProblem, u: np.ndarray) -> float:
    """D(u) = -(1/2)||M(u)_-||_F^2 + b * sum(u)."""
    return _dual_state(problem, _check_dual_point(problem, u))[0]


def dual_gradient(problem: ClassProblem, u: np.ndarray) -> np.ndarray:
    """dD/du_i = b + x_i^T M(u)_- x_i."""
    return _dual_state(problem, _check_dual_point(problem, u))[1]


def _check_dual_point(problem: ClassProblem, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (problem.n_intra,):
        raise InvalidInputError(
            f"expected {problem.n_intra} dual variables, got shape {u.shape}"
        )
    if not np.isfinite(u).all():
        raise InvalidInputError("dual variables have non-finite entries")
    return u


def recover_primal(problem: ClassProblem, u: np.ndarray) -> SymmetricMatrix:
    """Trained matrix P = -M(u)_-, PSD by construction."""
    v, neg = _dual_state(problem, _check_dual_point(problem, u))[2:4]
    return _primal_from(v, neg)


def _primal_value(problem: ClassProblem, p: np.ndarray) -> float:
    """(1/2)||P||_F^2 + lam * tr(P O) of a raw array."""
    return 0.5 * float(np.sum(p * p)) + problem.lam * float(
        np.sum(p * problem.extra_scatter.entries)
    )


def _max_violation(problem: ClassProblem, p: np.ndarray) -> float:
    """Worst constraint violation max_i max(0, b - x_i^T P x_i) of a raw array."""
    return float(np.max(np.maximum(problem.margin - quad_forms(p, problem.intra), 0.0)))


def primal_objective(problem: ClassProblem, p: SymmetricMatrix) -> float:
    """(1/2)||P||_F^2 + lam * tr(P O)."""
    if p.dim != problem.dim:
        raise InvalidInputError(f"matrix is {p.dim}-dimensional, problem is {problem.dim}")
    return _primal_value(problem, p.entries)


def constraint_values(problem: ClassProblem, p: SymmetricMatrix) -> np.ndarray:
    """x_i^T P x_i for every intra-class sample."""
    if p.dim != problem.dim:
        raise InvalidInputError(f"matrix is {p.dim}-dimensional, problem is {problem.dim}")
    return quad_forms(p.entries, problem.intra)


def _projected_gradient(u: np.ndarray, g: np.ndarray):
    """The gradient g of f = -D at u with the infeasible descent directions
    projected out.

    Component i is active when u_i = 0 and g_i > 0: descent along it would
    leave u >= 0. Returns (active, projected gradient, its max norm).
    """
    active = (u <= 0.0) & (g > 0.0)
    g_free = np.where(active, 0.0, g)
    return active, g_free, float(np.abs(g_free).max())


def _two_loop_direction(g: np.ndarray, pairs: deque) -> np.ndarray:
    """L-BFGS two-loop recursion: approximates H^{-1} g.

    Each pair is (s, y, 1/(s.y), s.y/(y.y)); the last pair's s.y/(y.y)
    scales the initial Hessian.
    """
    q = g.copy()
    if not pairs:
        return q
    alphas = []
    for s, y, rho, _ in reversed(pairs):
        a = rho * s.dot(q)
        q -= a * y
        alphas.append(a)
    q *= pairs[-1][3]
    for (s, y, rho, _), a in zip(pairs, reversed(alphas)):
        q += s * (a - rho * y.dot(q))
    return q


def check_feasible_samples(problem: ClassProblem) -> np.ndarray:
    """Raise when a constraint can never hold (zero-norm intra sample);
    otherwise return the squared norms ||x_i||^2 of the intra samples."""
    norms = np.einsum("ij,ij->i", problem.intra, problem.intra)
    if (norms == 0.0).any():
        i = int(np.argmax(norms == 0.0))
        raise InfeasibleProblemError(
            f"intra-class sample {i} has zero norm; x^T P x >= {problem.margin} "
            "cannot be satisfied"
        )
    return norms


def solve_dual(problem: ClassProblem) -> TrainedQuadraticMatrix:
    """Run the projected L-BFGS dual ascent and recover the trained matrix.

    It stops at MAX_ITERATIONS and GRAD_TOL as they are when it is called.
    Raises InfeasibleProblemError when an intra-class sample has zero norm
    (its constraint x^T P x >= b > 0 can never hold) and
    NumericalFailureError when an iterate stops being finite.
    """
    sq_norms = check_feasible_samples(problem)

    tol = GRAD_TOL * max(1.0, problem.margin)
    eig_before = eig_call_count()
    lam_o_norm = problem.lam * float(np.linalg.norm(problem.extra_scatter.entries))

    # Minimize f(u) = -D(u) over u >= 0.
    u = np.zeros(problem.n_intra)
    dual_value, dual_grad, v, neg, w, y2 = _dual_state(problem, u)
    f = -dual_value
    g = -dual_grad
    evals = 1

    pairs: deque = deque(maxlen=_MEMORY)
    iterations = 0

    # Stop on the gradient test or the cap, both checked at every iterate,
    # or on a failed line search.
    while True:
        active, g_free, grad_inf = _projected_gradient(u, g)
        if grad_inf <= tol:
            termination = "converged"
            break
        if iterations == MAX_ITERATIONS:
            termination = "max_iterations"
            break

        iterations += 1
        d = -_two_loop_direction(g_free, pairs)
        d[active] = 0.0
        descent = float(d.dot(g))
        if not math.isfinite(descent) or descent >= -1e-14 * (
            math.sqrt(d.dot(d)) * math.sqrt(g_free.dot(g_free)) + 1e-300
        ):
            # Steepest descent: g_free != 0 here, so d @ g = -||g_free||^2 < 0.
            d = -g_free

        step = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            u_new = np.maximum(u + step * d, 0.0)
            delta = u_new - u
            if not np.count_nonzero(delta):
                break
            directional = float(g.dot(delta))
            armijo = f + _ARMIJO_C * directional
            # The Armijo test rejects a trial with directional >= 0, and one
            # whose lower bound on f(u_new) exceeds armijo: skip evaluating it.
            if not (
                directional >= 0.0
                or _f_lower_bound(problem, w, y2, u, u_new, sq_norms, lam_o_norm) > armijo
            ):
                dual_new, dual_grad_new, v_new, neg_new, w_new, y2_new = _dual_state(
                    problem, u_new
                )
                f_new = -dual_new
                evals += 1
                if f_new <= armijo:
                    accepted = True
                    break
            step *= _LINE_SEARCH_SHRINK
        if not accepted:
            termination = "line_search_failed"
            break

        g_new = -dual_grad_new
        y = g_new - g
        sy = float(delta.dot(y))
        yy = float(y.dot(y))
        if sy > _CURVATURE_RTOL * (math.sqrt(delta.dot(delta)) * math.sqrt(yy)):
            pairs.append((delta, y, 1.0 / sy, sy / yy))

        u, f, g, v, neg, w, y2 = u_new, f_new, g_new, v_new, neg_new, w_new, y2_new
        if not (math.isfinite(f) and np.isfinite(g).all()):
            raise NumericalFailureError("solver iterate became non-finite")

    p = _primal_from(v, neg)
    dual_value = -f
    primal_value = primal_objective(problem, p)
    report = SolveReport(
        iterations=iterations,
        termination=termination,
        dual_objective=dual_value,
        primal_objective=primal_value,
        duality_gap=primal_value - dual_value,
        grad_inf_norm=grad_inf,
        max_violation=_max_violation(problem, p.entries),
        objective_evals=evals,
        eig_calls=eig_call_count() - eig_before,
    )
    return TrainedQuadraticMatrix(matrix=p, dual=DualVariables(u), report=report)


def kkt_report(
    problem: ClassProblem,
    dual: DualVariables,
    matrix: SymmetricMatrix,
) -> KktReport:
    """Measure optimality of a dual point and its recovered matrix.

    All quantities should be near zero at an optimum except min_eigenvalue,
    which should be nonnegative up to the PSD certification tolerance.
    """
    u = _check_dual_point(problem, dual.values)
    dual_value, dual_grad = _dual_state(problem, u)[:2]

    slack = np.abs(u * (constraint_values(problem, matrix) - problem.margin))
    primal_value = primal_objective(problem, matrix)

    return KktReport(
        grad_inf_norm=_projected_gradient(u, -dual_grad)[2],
        max_violation=_max_violation(problem, matrix.entries),
        complementary_slackness=float(np.max(slack)),
        duality_gap=primal_value - dual_value,
        min_eigenvalue=min_eigenvalue(matrix),
        dual_objective=dual_value,
        primal_objective=primal_value,
    )


def random_class_problem(
    rng: np.random.Generator,
    dim: int = 8,
    n_intra: int = 20,
    n_extra: int = 40,
    lam: float = 1.0,
    spread: float = 0.5,
) -> ClassProblem:
    """A synthetic single-class instance for diagnostics and stress tests.

    Intra-class samples cluster around a random unit direction with the given
    spread, then are normalized to unit length so the constraint scale stays
    O(1); extra-class samples are isotropic.
    """
    center = rng.normal(size=dim)
    center /= np.linalg.norm(center)
    intra = center + spread * rng.normal(size=(n_intra, dim))
    intra /= np.linalg.norm(intra, axis=1, keepdims=True)
    extra = rng.normal(size=(n_extra, dim)) / np.sqrt(dim)
    return ClassProblem(
        intra=intra,
        extra_scatter=build_scatter(extra),
        lam=lam,
    )
