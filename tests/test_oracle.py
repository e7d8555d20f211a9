"""Reference-solver tests: hand-checked optima, cross-solver agreement,
and the feasibility/PSD guarantees every oracle result must carry."""

import numpy as np
import pytest

from dqml import oracle
from dqml.errors import (
    InfeasibleProblemError,
    InvalidInputError,
    UnboundedProblemError,
)
from dqml.oracle import (
    OracleResult,
    solve_primal_grid,
    solve_primal_penalty,
    solve_unregularized,
)
from dqml.qml import ClassProblem, random_class_problem, solve_dual
from dqml.symmat import SymmetricMatrix


def zero_scatter(dim):
    return SymmetricMatrix(np.zeros((dim, dim)))


def single_axis_problem(margin=1.0):
    return ClassProblem(
        intra=np.array([[1.0, 0.0]]),
        extra_scatter=zero_scatter(2),
        lam=1.0,
        margin=margin,
    )


def two_axes_problem():
    return ClassProblem(np.eye(2), zero_scatter(2), lam=1.0)


def random_2d_problem(seed):
    # Light regularizer and few extra samples keep the objective gradient
    # near unit scale, which is what makes grid discretization error O(step).
    rng = np.random.default_rng(seed)
    return random_class_problem(
        rng, dim=2, n_intra=5, n_extra=4, lam=0.1, spread=0.25
    )


class TestGridOracle:
    def test_single_constraint_optimum(self):
        res = solve_primal_grid(single_axis_problem(), step=0.01)
        a, c = res.matrix.entries[0]
        d = res.matrix.entries[1, 1]
        assert a == pytest.approx(1.0, abs=0.02)
        assert c == pytest.approx(0.0, abs=0.02)
        assert d == pytest.approx(0.0, abs=0.02)
        assert res.objective == pytest.approx(0.5, abs=0.02)

    def test_two_axes_optimum(self):
        res = solve_primal_grid(two_axes_problem(), step=0.01)
        assert np.allclose(res.matrix.entries, np.eye(2), atol=0.02)
        assert res.objective == pytest.approx(1.0, abs=0.03)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_agrees_with_dual_solver(self, seed):
        prob = random_2d_problem(seed)
        step = 0.05
        res = solve_primal_grid(prob, step=step)
        trained = solve_dual(prob)
        assert abs(res.objective - trained.report.primal_objective) <= 2.0 * step

    def test_refinement_is_monotone(self):
        prob = random_2d_problem(3)
        objectives = [
            solve_primal_grid(prob, step=s).objective
            for s in (0.2, 0.1, 0.05)
        ]
        assert objectives[1] <= objectives[0] + 1e-12
        assert objectives[2] <= objectives[1] + 1e-12

    @pytest.mark.parametrize("margin", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_coarsest_grid_holds_a_feasible_point(self, margin, scale):
        # At step = bracket h the grid is {0, h} (and -h for c); diag(h, h)
        # satisfies every constraint, so the search never comes back empty.
        base = random_2d_problem(11)
        prob = ClassProblem(
            scale * base.intra * [[1.0], [2.0], [0.5], [1.0], [3.0]],
            base.extra_scatter, lam=base.lam, margin=margin,
        )
        x = prob.intra
        bracket = 3.0 * margin * float(np.max(1.0 / np.einsum("ij,ij->i", x, x)))
        for step in (bracket, 0.7 * bracket):
            res = solve_primal_grid(prob, step=step)
            assert res.max_violation == 0.0
            assert np.min(np.linalg.eigvalsh(res.matrix.entries)) >= -1e-9 * bracket

    def test_requires_two_dimensions(self):
        prob = ClassProblem(np.eye(3), zero_scatter(3), lam=1.0)
        with pytest.raises(InvalidInputError, match="dimension 2"):
            solve_primal_grid(prob)

    def test_rejects_bad_step(self):
        with pytest.raises(InvalidInputError):
            solve_primal_grid(single_axis_problem(), step=0.0)
        with pytest.raises(InvalidInputError):
            # The single-axis problem's bracket is 3.
            solve_primal_grid(single_axis_problem(), step=5.0)

    def test_refuses_more_than_the_step_cap(self, monkeypatch):
        # The single-axis problem's bracket is 3.
        with pytest.raises(InvalidInputError, match="smallest step accepted is 0.005$"):
            solve_primal_grid(single_axis_problem(), step=3.0 / 601)
        monkeypatch.setattr(oracle, "GRID_MAX_STEPS", 20)
        res = solve_primal_grid(single_axis_problem(), step=3.0 / 20)
        assert res.max_violation == 0.0
        with pytest.raises(InvalidInputError, match="puts 21 steps .* accepted is 0.15$"):
            solve_primal_grid(single_axis_problem(), step=3.0 / 21)

    def test_zero_norm_sample_is_infeasible(self):
        # The problem itself refuses the sample, before any solver runs.
        with pytest.raises(InfeasibleProblemError, match="zero norm"):
            solve_primal_grid(
                ClassProblem(np.array([[1.0, 0.0], [0.0, 0.0]]), zero_scatter(2), lam=1.0)
            )

    def test_result_is_feasible_and_psd(self):
        res = solve_primal_grid(random_2d_problem(7), step=0.05)
        assert res.max_violation == 0.0
        assert np.min(np.linalg.eigvalsh(res.matrix.entries)) >= -1e-6


class TestPenaltyOracle:
    def test_single_constraint_objective(self):
        res = solve_primal_penalty(single_axis_problem())
        assert res.objective == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_agrees_with_dual_solver(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_class_problem(rng, dim=6, n_intra=4, n_extra=12)
        res = solve_primal_penalty(prob)
        trained = solve_dual(prob)
        ref = trained.report.primal_objective
        assert abs(res.objective - ref) <= 1e-3 * max(1.0, abs(ref))

    def test_zero_norm_sample_is_infeasible(self):
        # The problem itself refuses the sample, before any solver runs.
        with pytest.raises(InfeasibleProblemError, match="zero norm"):
            solve_primal_penalty(
                ClassProblem(np.array([[1.0, 0.0], [0.0, 0.0]]), zero_scatter(2), lam=1.0)
            )

    def test_violation_within_contract(self):
        rng = np.random.default_rng(11)
        prob = random_class_problem(rng, dim=5, n_intra=8, n_extra=15)
        res = solve_primal_penalty(prob)
        assert res.max_violation <= 1e-5 * prob.margin

    def test_stage_violations_decrease(self):
        rng = np.random.default_rng(8)
        prob = random_class_problem(rng, dim=4, n_intra=6, n_extra=10)
        res = solve_primal_penalty(prob)
        v = np.array(res.stage_violations)
        assert v.size == 5
        assert np.all(np.diff(v) <= 1e-9)

    def test_result_is_psd(self):
        res = solve_primal_penalty(random_2d_problem(5))
        assert np.min(np.linalg.eigvalsh(res.matrix.entries)) >= -1e-6


class TestUnregularized:
    def axis_with_identity_scatter(self, margin=1.0):
        return ClassProblem(
            intra=np.array([[1.0, 0.0]]),
            extra_scatter=SymmetricMatrix(np.eye(2)),
            lam=1.0,
            margin=margin,
        )

    def test_concentrates_on_constraint_direction(self):
        res = solve_unregularized(self.axis_with_identity_scatter())
        p = res.matrix.entries
        assert p[0, 0] == pytest.approx(1.0, abs=1e-3)
        assert abs(p[0, 1]) <= 1e-3
        assert abs(p[1, 1]) <= 1e-3
        assert res.objective == pytest.approx(1.0, abs=2e-3)

    def test_margin_scaling_is_linear(self):
        p1 = solve_unregularized(self.axis_with_identity_scatter(margin=1.0))
        p2 = solve_unregularized(self.axis_with_identity_scatter(margin=2.0))
        assert np.allclose(
            p2.matrix.entries, 2.0 * p1.matrix.entries, rtol=1e-3, atol=1e-3
        )
        assert p2.objective == pytest.approx(2.0 * p1.objective, rel=1e-3)

    def test_bounded_random_instance_scaling(self):
        # Near-orthogonal constraints with an identity-dominated scatter:
        # the penalty path converges tightly, so the b -> b*P law is visible
        # at full oracle accuracy.
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        x = q[:, :2].T
        e = 0.3 * rng.normal(size=(8, 4))
        scatter = SymmetricMatrix(np.eye(4) + e.T @ e)
        p1 = solve_unregularized(ClassProblem(x, scatter, lam=1.0, margin=1.0))
        p2 = solve_unregularized(ClassProblem(x, scatter, lam=1.0, margin=2.0))
        scale = np.max(np.abs(p2.matrix.entries))
        assert np.allclose(
            p2.matrix.entries, 2.0 * p1.matrix.entries, atol=1e-3 * scale
        )

    def test_unbounded_instance_is_detected(self):
        # tr(P O) with an indefinite O decreases without bound along the
        # unconstrained PSD direction e2 e2^T.
        prob = ClassProblem(
            intra=np.array([[1.0, 0.0]]),
            extra_scatter=SymmetricMatrix(np.diag([1.0, -1.0])),
            lam=1.0,
        )
        with pytest.raises(UnboundedProblemError):
            solve_unregularized(prob)

    def test_result_is_feasible(self):
        res = solve_unregularized(self.axis_with_identity_scatter())
        assert res.max_violation <= 1e-5
        assert isinstance(res, OracleResult)
