"""Dual solver for per-class quadratic matrices.

For one class with intra-class samples x_1..x_n and an extra-class scatter
matrix O, the trained matrix is the PSD minimizer of

    (1/2) ||P||_F^2 + lam * tr(P O)    s.t.   x_i^T P x_i >= b  for all i.

The solver maximizes the Lagrange dual

    D(u) = -(1/2) ||M(u)_-||_F^2 + b * sum(u),    u >= 0,

where M(u) = lam*O - sum_i u_i x_i x_i^T and M_- is the negative spectral
part of M. The optimizer runs projected L-BFGS with Armijo backtracking,
then finishes with regularized projected semismooth Newton steps, whose
generalized Hessian comes from the same eigendecomposition; the trained
matrix is recovered in closed form as P = -M(u*)_-. Each combined
objective/gradient evaluation costs exactly one dense eigendecomposition.
The L-BFGS backtracking evaluates a trial step only if the Armijo test could
accept it: a trial whose lower bound on -D, taken from the current point's
spectrum, already fails the test is rejected unevaluated.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleProblemError, InvalidInputError, NumericalFailureError
from .symmat import (
    EIGENVALUE_CLAMP_RTOL,
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

# solve_dual's projected L-BFGS phase runs for at most this many iterations,
# half the default budget, before Newton steps take over. It is fixed here,
# not read from MAX_ITERATIONS at each call, so that a run with a larger
# budget continues the run with a smaller one.
_LBFGS_ITERATIONS = MAX_ITERATIONS // 2


def _is_number(value, kind=numbers.Integral) -> bool:
    """Whether ``value`` is a ``kind`` (an integer by default) and not a bool.

    Python counts True as the integer 1, but no count, seed, label, weight or
    summary field means a bool. numpy integers and floats pass as Python's do.
    """
    return isinstance(value, kind) and not isinstance(value, bool)


def build_scatter(samples: np.ndarray) -> SymmetricMatrix:
    """Scatter matrix sum_j x_j x_j^T of the given sample rows.

    Rows are put into a canonical order before accumulation so the result is
    bit-identical under any permutation of the input.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise InvalidInputError(f"expected a 2-d sample array, got shape {x.shape}")
    if x.shape[1] < 1:
        raise InvalidInputError("sample dimension must be at least 1")
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
    sq_norms, lam_o_norm (derived): ||x_i||^2 of each intra-class sample
    (read-only) and ||lam O||_F, inf if it overflows.

    Raises InfeasibleProblemError when an intra-class sample has zero norm,
    so that x^T P x >= b > 0 can never hold.
    """

    intra: np.ndarray
    extra_scatter: SymmetricMatrix
    lam: float
    margin: float = 1.0
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    lam_o_norm: float = field(init=False, repr=False, compare=False)

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
        for name in ("lam", "margin"):
            v = getattr(self, name)
            if not (_is_number(v, numbers.Real) and 0 < v < np.inf):
                raise InvalidInputError(f"{name} must be positive and finite, got {v!r}")
        x.flags.writeable = False
        object.__setattr__(self, "intra", x)
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "margin", float(self.margin))
        with np.errstate(over="ignore"):
            lam_o = self.lam_o
            lam_o_norm = self.lam * float(np.linalg.norm(self.extra_scatter.entries))
            sq_norms = np.einsum("ij,ij->i", x, x)
        if not np.isfinite(lam_o).all():
            raise InvalidInputError("lam * extra_scatter has non-finite entries")
        if (sq_norms == 0.0).any():
            i = int(np.argmax(sq_norms == 0.0))
            raise InfeasibleProblemError(
                f"intra-class sample {i} has zero norm; x^T P x >= {self.margin} "
                "cannot be satisfied"
            )
        if not np.isfinite(sq_norms).all():
            raise InvalidInputError("intra samples have non-finite squared norms")
        sq_norms.flags.writeable = False
        object.__setattr__(self, "sq_norms", sq_norms)
        object.__setattr__(self, "lam_o_norm", lam_o_norm)

    @property
    def lam_o(self) -> np.ndarray:
        """lam * O, the constant term of M(u), computed at each access."""
        return self.lam * self.extra_scatter.entries

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
class KktReport:
    """Optimality certificate of a (problem, dual, matrix) triple.

    All quantities should be near zero at an optimum except min_eigenvalue,
    which should be nonnegative up to the PSD certification tolerance.
    duality_gap = primal(P) - D(u) is negative while P violates a constraint;
    suboptimality = primal(s P) - D(u), s = max(1, b / min_i x_i^T P x_i), is
    >= 0 by weak duality (s P is feasible), or +inf if some x_i^T P x_i <= 0.
    """

    grad_inf_norm: float
    max_violation: float
    complementary_slackness: float
    duality_gap: float
    suboptimality: float
    min_eigenvalue: float
    dual_objective: float
    primal_objective: float


@dataclass(frozen=True)
class SolveReport(KktReport):
    """How a solve_dual run ended, with the certificate of its returned triple.

    ``termination`` names the exit taken: "converged" (grad_inf_norm <=
    GRAD_TOL * max(1, margin) there), "max_iterations" or
    "line_search_failed". ``iterations`` counts the L-BFGS iterations and
    Newton steps attempted, including those whose line search failed: an
    L-BFGS one hands over to Newton, a Newton one ends the solve.
    ``objective_evals``
    counts the points evaluated: the start and the line-search trials that
    were evaluated, not those rejected unevaluated. ``eig_calls`` counts
    the solving thread's eigendecompositions meanwhile, one per evaluation;
    the one of P behind ``min_eigenvalue`` is not counted. ``seconds`` is the
    solve's wall time; it differs between equal runs, so reports compare
    equal without it.
    """

    iterations: int
    termination: str
    objective_evals: int
    eig_calls: int
    seconds: float = field(compare=False)

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


@dataclass(frozen=True)
class TrainedQuadraticMatrix:
    """A trained PSD matrix P = W W^T, held as its read-only m x r factor
    W = V_- diag(sqrt(-w_-)) from the negative eigenpairs of M(u*), so r <= n_c,
    with its dual certificate and solve diagnostics. ``matrix`` forms P at each
    access and keeps no copy. ``dual`` and ``report`` are None for matrices
    loaded from disk."""

    factor: np.ndarray
    dual: DualVariables | None
    report: SolveReport | None

    def __post_init__(self) -> None:
        w = np.array(self.factor, dtype=float, copy=True)
        if not (w.ndim == 2 and w.shape[0] >= max(1, w.shape[1]) and np.isfinite(w).all()):
            raise InvalidInputError(f"factor must be a finite m x r array, r <= m; got {w.shape}")
        w.flags.writeable = False
        object.__setattr__(self, "factor", w)

    @property
    def matrix(self) -> SymmetricMatrix:
        return _primal_from(self.factor)


def _assemble(problem: ClassProblem, u: np.ndarray, lam_o: np.ndarray) -> np.ndarray:
    """The raw array of M(u) = lam*O - sum_i u_i x_i x_i^T, given lam_o = lam*O."""
    x = problem.intra
    m = lam_o - (x.T * u) @ x
    return (m + m.T) / 2.0


def _dual_state(problem: ClassProblem, u: np.ndarray, lam_o: np.ndarray):
    """f(u) = -D(u), its gradient, and the spectrum of M(u), given lam_o = lam*O.

    The one place the dual is evaluated: exactly one eigendecomposition per
    call. Returns (f, grad_f, eigenvectors, negative_eigenvalues,
    eigenvalues, y2, y), eigenvalues descending, where y = X V holds the
    coordinates of the samples in the eigenbasis and y2 = y^2.
    """
    m = _assemble(problem, u, lam_o)
    if not np.isfinite(m).all():
        raise NumericalFailureError("dual matrix M(u) has non-finite entries")
    try:
        w, v = _eigh_descending(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("eigendecomposition of M(u) failed") from exc
    neg = _clamped_part(w, negative=True)
    b = problem.margin
    # f as -D, so that D(0) = -f(0) is +0.0; 0.5||neg||^2 - b sum(u) gives D(0) = -0.0.
    f = -(b * float(u.sum()) - 0.5 * float(neg.dot(neg)))
    y = problem.intra @ v
    y2 = np.square(y)
    g = -(b + y2 @ neg)
    return f, g, v, neg, w, y2, y


def _dual_hessian(y: np.ndarray, w: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """The generalized Hessian of f = -D at u (Qi & Sun 2006), from the
    coordinates y = X V, eigenvalues w and negative part neg of M(u):

        H_ij = sum_kl Omega_kl y_ik y_il y_jk y_jl,

    where Omega_kl is the divided difference of min(0, .) at w_k and w_l (1
    where they are equal and negative). Omega_kl = 0 unless w_k or w_l is
    negative, so H is formed from the r m columns y_k o y_l with neg_k < 0; a
    column with neg_l = 0 stands for both (k, l) and (l, k).
    """
    k = neg < 0.0
    gap = w[k, None] - w
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = np.where(gap != 0.0, (neg[k, None] - neg) / gap, 1.0)
    omega *= np.where(k, 1.0, 2.0)
    z = (y[:, k, None] * y[:, None, :]).reshape(y.shape[0], -1)
    return (z * omega.ravel()) @ z.T


def _f_lower_bound(
    problem: ClassProblem,
    w: np.ndarray,
    y2: np.ndarray,
    u: np.ndarray,
    u_new: np.ndarray,
    delta: np.ndarray,
) -> float:
    """A lower bound on the f = -D(u_new) that _dual_state would compute,
    from the spectrum w and y2 of M(u) at the point u, without an
    eigendecomposition. delta is the step u_new - u.

    ||M_-||_F^2 is the squared distance from M to the PSD cone, and the cone
    lies inside {A : diag(V^T A V) >= 0} for any orthonormal V. So
    ||M(u_new)_-||^2 >= sum_k min(0, v_k^T M(u_new) v_k)^2, and
    v_k^T M(u_new) v_k = w_k - (delta . y2)_k with delta = u_new - u. Hence
    f(u_new) >= (1/2)||min(0, w - delta . y2)||^2 - b sum(u_new) =: LB.

    The value returned is LB - tau, where tau (_rounding_margin) covers the
    rounding of both computations. With S = ||lam O||_F + sum_i max(u_i, u_new_i) ||x_i||^2,
    which bounds ||M||_F at u and at u_new, and constants of order one
    dropped:
    - ||A_-||_F is the distance from A to the PSD cone, so it moves by at
      most ||E||_F when A moves by E; so does ||min(0, a)|| when a vector
      a moves by e.
    - eigh is backward stable, so the computed V lies within m eps of an
      orthonormal Q that diagonalizes a matrix within m eps S of the
      computed M(u). Assembling M(u) and forming delta . y2 add n terms
      whose sizes sum to <= S. So the computed z equals
      min(0, diag(Q^T M(u_new) Q)) up to a vector of norm
      <= eps S (m^(3/2) + n sqrt(m)), and ||M(u_new)_-||_F is at least the
      norm of that exact vector.
    - the eigenvalues _dual_state would compute at u_new are exact for a
      matrix within eps S (m^(3/2) + m n) of M(u_new): eigh's backward
      error plus n rounded terms in each of the m^2 entries.
    - so, with d = 2 eps S (m^(3/2) + m n), the computed negative part
      before the clamp has norm >= ||z|| - d, and its square is
      >= ||z||^2 - 2 ||z|| d whatever the sign of ||z|| - d.
    - the clamp band zeroes eigenvalues with |w_k| <= 1e-10 max|w|, which
      lowers the computed ||M_-||^2 by <= m (1e-10 S)^2.
    - the two dot products z . z and neg . neg round by <= m eps ||z||^2
      between them, up to terms already counted, and the subtraction of
      b sum(u_new), the same float on both sides, by
      <= eps (||z||^2 + 2 b sum(u_new)).
    So tau = ||z|| d + (1/2) m (1e-10 S)^2
             + eps ((m + 1) ||z||^2 + 2 b sum(u_new)).
    It grows with ||z|| S, not with S^2. When S overflows, tau is inf or
    NaN, and the caller's test then evaluates the trial.
    """
    z = np.minimum(w - delta @ y2, 0.0)
    zz = float(z.dot(z))
    return 0.5 * zz - problem.margin * float(u_new.sum()) - _rounding_margin(problem, zz, u, u_new)


def _rounding_margin(problem: ClassProblem, zz: float, u: np.ndarray, u_new: np.ndarray) -> float:
    """tau of _f_lower_bound, for ||z||^2 = zz: how far rounding can move an
    f that _dual_state computes at u_new, or a bound on it, from the exact
    value."""
    m, n = problem.dim, problem.n_intra
    s = problem.lam_o_norm + float(np.maximum(u, u_new).dot(problem.sq_norms))
    d = 2.0 * _EPS * s * (m * math.sqrt(m) + m * n)
    return (
        math.sqrt(zz) * d
        + 0.5 * m * (EIGENVALUE_CLAMP_RTOL * s) * (EIGENVALUE_CLAMP_RTOL * s)
        + _EPS * ((m + 1) * zz + 2.0 * (problem.margin * float(u_new.sum())))
    )


def _factor_from(v: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """W with -M_- = W W^T, from the eigenvectors and negative part of M."""
    keep = neg < 0.0
    return v[:, keep] * np.sqrt(-neg[keep])


def _primal_from(w: np.ndarray) -> SymmetricMatrix:
    """P = W W^T, symmetrized: the one place P is formed from its factor."""
    p = w @ w.T
    return SymmetricMatrix((p + p.T) / 2.0)


def assemble_m(problem: ClassProblem, u: np.ndarray) -> SymmetricMatrix:
    """The dual matrix M(u) = lam*O - sum_i u_i x_i x_i^T."""
    return SymmetricMatrix(_assemble(problem, _check_dual_point(problem, u), problem.lam_o))


def dual_objective(problem: ClassProblem, u: np.ndarray) -> float:
    """D(u) = -(1/2)||M(u)_-||_F^2 + b * sum(u)."""
    return -_dual_state(problem, _check_dual_point(problem, u), problem.lam_o)[0]


def dual_gradient(problem: ClassProblem, u: np.ndarray) -> np.ndarray:
    """dD/du_i = b + x_i^T M(u)_- x_i."""
    return -_dual_state(problem, _check_dual_point(problem, u), problem.lam_o)[1]


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
    v, neg = _dual_state(problem, _check_dual_point(problem, u), problem.lam_o)[2:4]
    return _primal_from(_factor_from(v, neg))


def _max_violation(problem: ClassProblem, p: np.ndarray) -> float:
    """Worst constraint violation max_i max(0, b - x_i^T P x_i) of a raw array."""
    return float(np.max(np.maximum(problem.margin - quad_forms(p, problem.intra), 0.0)))


def _primal_terms(problem: ClassProblem, p: SymmetricMatrix) -> tuple[float, float]:
    """The two terms (1/2)||P||_F^2 and lam * tr(P O) of the primal objective."""
    if p.dim != problem.dim:
        raise InvalidInputError(f"matrix is {p.dim}-dimensional, problem is {problem.dim}")
    return (0.5 * float(np.sum(p.entries * p.entries)),
            problem.lam * float(np.sum(p.entries * problem.extra_scatter.entries)))


def primal_objective(problem: ClassProblem, p: SymmetricMatrix) -> float:
    """(1/2)||P||_F^2 + lam * tr(P O)."""
    return sum(_primal_terms(problem, p))


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


def _lbfgs_step(problem, u, state, active, g_free, pairs, lam_o):
    """One projected L-BFGS step from u with its _dual_state ``state``.

    Returns (u_new, state at u_new, evaluations), or (u, None, evaluations)
    when the line search fails. Updates the (s, y) pairs.
    """
    f, g, _, _, w, y2, _ = state
    d = -_two_loop_direction(g_free, pairs)
    d[active] = 0.0
    descent = float(d.dot(g))
    if not math.isfinite(descent) or descent >= -1e-14 * (
        math.sqrt(d.dot(d)) * math.sqrt(g_free.dot(g_free)) + 1e-300
    ):
        # Steepest descent: g_free != 0 here, so d @ g = -||g_free||^2 < 0.
        d = -g_free

    step = 1.0
    evals = 0
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
            directional >= 0.0 or _f_lower_bound(problem, w, y2, u, u_new, delta) > armijo
        ):
            new = _dual_state(problem, u_new, lam_o)
            evals += 1
            if new[0] <= armijo:
                y = new[1] - g
                sy = float(delta.dot(y))
                yy = float(y.dot(y))
                if sy > _CURVATURE_RTOL * (math.sqrt(delta.dot(delta)) * math.sqrt(yy)):
                    pairs.append((delta, y, 1.0 / sy, sy / yy))
                return u_new, new, evals
        step *= _LINE_SEARCH_SHRINK
    return u, None, evals


def _newton_step(problem, u, state, grad_inf, lam_o):
    """One regularized projected semismooth Newton step from u, whose
    _dual_state is ``state`` and projected gradient max norm ``grad_inf``.

    On the epsilon-free set F it solves (H_FF + mu I) d_F = -g_F (Bertsekas
    1982; Li, Fukushima, Qi & Yamashita 2004), on the epsilon-active set A it
    takes d_A = -g_A / max(H_ii, mu), with mu = 1e-3 min(1, grad_inf) max_i H_ii.
    Where M(u) is PSD, H = 0 and f is linear: it steps along -g by the trace
    bound t = 1 / sum_i d_i sum_k y2_ik / w_k, which keeps M(u + t d) PSD,
    and doubles t while f falls. Otherwise it backtracks until the Armijo
    test holds, or until f moves by no more than its rounding margin while
    the projected gradient falls. Returns as _lbfgs_step does.
    """
    f, g, _, neg, w, y2, y = state
    h = _dual_hessian(y, w, neg)
    h_diag = h.diagonal()
    mu = 1e-3 * min(1.0, grad_inf) * float(h_diag.max())
    linear = not mu > 0.0
    if linear:
        d = -g
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            trace = float(d.dot(y2 @ (1.0 / w)))
        step = 1.0 / trace if 0.0 < trace < math.inf else 1.0
    else:
        eps = min(1e-3, float(np.abs(u - np.maximum(u - g, 0.0)).max()))
        free = ~((u <= eps) & (g > 0.0))
        d = -g / np.maximum(h_diag, mu)
        d[free] = np.linalg.solve(h[np.ix_(free, free)] + mu * np.eye(int(free.sum())), -g[free])
        step = 1.0
    zz = float(neg.dot(neg))
    best = None
    evals = 0
    for _ in range(_MAX_BACKTRACKS):
        u_new = np.maximum(u + step * d, 0.0)
        delta = u_new - u
        if not np.count_nonzero(delta):
            break
        new = _dual_state(problem, u_new, lam_o)
        evals += 1
        if best is not None:
            if not new[0] < best[1][0]:
                break
        elif not (
            new[0] <= f + _ARMIJO_C * float(g.dot(delta))
            or (abs(new[0] - f) <= _rounding_margin(problem, zz, u, u_new)
                and _projected_gradient(u_new, new[1])[2] < grad_inf)
        ):
            step *= _LINE_SEARCH_SHRINK
            continue
        best = (u_new, new)
        if not linear:
            break
        step *= 2.0
    return (*best, evals) if best else (u, None, evals)


def solve_dual(problem: ClassProblem) -> TrainedQuadraticMatrix:
    """Minimize f = -D over u >= 0 and recover the trained matrix.

    Projected L-BFGS runs first, for at most _LBFGS_ITERATIONS iterations or
    until its first line search fails; regularized projected semismooth
    Newton steps (_newton_step) then finish the solve within the rest of the
    MAX_ITERATIONS budget. It stops at MAX_ITERATIONS and GRAD_TOL as they
    are when it is called. Raises NumericalFailureError when an iterate
    stops being finite.
    """
    start = time.perf_counter()
    tol = GRAD_TOL * max(1.0, problem.margin)
    eig_before = eig_call_count()
    lam_o = problem.lam_o

    u = np.zeros(problem.n_intra)
    state = _dual_state(problem, u, lam_o)
    evals = 1

    pairs: deque = deque(maxlen=_MEMORY)
    iterations = 0
    newton = False

    # Stop on the gradient test or the cap, both checked at every iterate,
    # or on a failed Newton line search.
    while True:
        active, g_free, grad_inf = _projected_gradient(u, state[1])
        if grad_inf <= tol:
            termination = "converged"
            break
        if iterations == MAX_ITERATIONS:
            termination = "max_iterations"
            break
        newton = newton or iterations == _LBFGS_ITERATIONS
        iterations += 1
        if newton:
            u, new, n = _newton_step(problem, u, state, grad_inf, lam_o)
        else:
            u, new, n = _lbfgs_step(problem, u, state, active, g_free, pairs, lam_o)
        evals += n
        if new is None:
            if newton:
                termination = "line_search_failed"
                break
            newton = True
            continue
        state = new
        if not (math.isfinite(state[0]) and np.isfinite(state[1]).all()):
            raise NumericalFailureError("solver iterate became non-finite")

    eig_calls = eig_call_count() - eig_before
    factor = _factor_from(state[2], state[3])
    report = SolveReport(
        **_kkt(problem, u, state[0], state[1], _primal_from(factor)),
        iterations=iterations,
        termination=termination,
        objective_evals=evals,
        eig_calls=eig_calls,
        seconds=time.perf_counter() - start,
    )
    return TrainedQuadraticMatrix(factor, DualVariables(u), report)


def _kkt(
    problem: ClassProblem, u: np.ndarray, f: float, g: np.ndarray, matrix: SymmetricMatrix
) -> dict:
    """KktReport's fields from multipliers u, f(u) = -D(u) and its gradient
    g at u, and a matrix: the whole certificate in one pass, with one eigh
    of the matrix for min_eigenvalue."""
    q = constraint_values(problem, matrix)
    residual = problem.margin - q
    half_sq, linear = _primal_terms(problem, matrix)
    primal_value = half_sq + linear
    # s P with s = max(1, b / min_i q_i) is feasible; if some q_i <= 0, no multiple is.
    s = max(1.0, problem.margin / float(q.min())) if q.min() > 0.0 else math.inf
    return dict(
        grad_inf_norm=_projected_gradient(u, g)[2],
        max_violation=float(np.max(np.maximum(residual, 0.0))),
        complementary_slackness=float(np.max(np.abs(u * residual))),
        duality_gap=primal_value + f,
        suboptimality=s * s * half_sq + s * linear + f if s < math.inf else math.inf,
        min_eigenvalue=min_eigenvalue(matrix),
        dual_objective=-f,
        primal_objective=primal_value,
    )


def kkt_report(
    problem: ClassProblem,
    dual: DualVariables,
    matrix: SymmetricMatrix,
) -> KktReport:
    """Certify a dual point and a matrix, such as solve_dual's returned pair."""
    u = _check_dual_point(problem, dual.values)
    f, g = _dual_state(problem, u, problem.lam_o)[:2]
    return KktReport(**_kkt(problem, u, f, g, matrix))


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
