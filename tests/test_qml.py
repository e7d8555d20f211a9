"""Dual solver tests: closed forms, a finite-difference gradient oracle,
optimality certificates, and structural invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqml import qml
from dqml.datasets import SplitSpec, SynthSpec, generate_synthetic, split_random
from dqml.errors import InfeasibleProblemError, InvalidInputError
from dqml.pipeline import build_class_problem
from dqml.qml import (
    ClassProblem,
    DualVariables,
    assemble_m,
    build_scatter,
    constraint_values,
    dual_gradient,
    dual_objective,
    kkt_report,
    primal_objective,
    random_class_problem,
    recover_primal,
    solve_dual,
)
from dqml.symmat import EIGENVALUE_CLAMP_RTOL, SymmetricMatrix, negative_part


def zero_scatter(dim):
    return SymmetricMatrix(np.zeros((dim, dim)))


def single_axis_problem(margin=1.0):
    """One constraint on x = e1 with no regularizer: analytic optimum."""
    return ClassProblem(
        intra=np.array([[1.0, 0.0]]),
        extra_scatter=zero_scatter(2),
        lam=1.0,
        margin=margin,
    )


def fd_gradient(problem, u, h=1e-6):
    g = np.zeros_like(u)
    for i in range(u.size):
        up = u.copy()
        um = u.copy()
        up[i] += h
        um[i] -= h
        g[i] = (dual_objective(problem, up) - dual_objective(problem, um)) / (2 * h)
    return g


class TestConstruction:
    def test_rejects_empty_intra(self):
        with pytest.raises(InvalidInputError):
            ClassProblem(np.zeros((0, 2)), zero_scatter(2), lam=1.0)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(InvalidInputError, match="dimensional"):
            ClassProblem(np.ones((3, 4)), zero_scatter(2), lam=1.0)

    def test_rejects_bad_lam(self):
        with pytest.raises(InvalidInputError):
            ClassProblem(np.ones((1, 2)), zero_scatter(2), lam=0.0)
        with pytest.raises(InvalidInputError):
            ClassProblem(np.ones((1, 2)), zero_scatter(2), lam=-1.0)

    def test_rejects_bad_margin(self):
        with pytest.raises(InvalidInputError):
            ClassProblem(np.ones((1, 2)), zero_scatter(2), lam=1.0, margin=0.0)

    def test_rejects_nonfinite_samples(self):
        ok = np.array([[1.0, 0.0]])
        # The refusal is dqml's own error, with no numpy RuntimeWarning first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cases = [
                (np.array([[1.0, np.inf]]), zero_scatter(2), 1.0),
                (ok, SymmetricMatrix(np.diag([np.inf, 1.0])), 1.0),
                # lam * O overflows although both factors are finite.
                (ok, SymmetricMatrix(np.diag([1e308, 1.0])), 10.0),
                # The scatter of huge samples overflows.
                (ok, build_scatter(np.array([[1e308, 1.0], [-1e308, 1.0]])), 1.0),
            ]
            for intra, scatter, lam in cases:
                with pytest.raises(InvalidInputError):
                    ClassProblem(intra, scatter, lam=lam)

    def test_dual_variables_reject_negative(self):
        with pytest.raises(InvalidInputError):
            DualVariables(np.array([0.5, -0.1]))


class TestBuildScatter:
    def test_two_samples(self):
        s = build_scatter(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert np.allclose(s.entries, [[2.0, 1.0], [1.0, 1.0]])

    def test_empty_needs_dim(self):
        assert build_scatter(np.zeros((0, 3))).entries.shape == (3, 3)
        assert np.all(build_scatter(np.zeros((0, 3))).entries == 0.0)

    def test_permutation_gives_bit_identical_result(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(40, 5))
        perm = rng.permutation(40)
        a = build_scatter(x).entries
        b = build_scatter(x[perm]).entries
        assert np.array_equal(a, b)


class TestClosedForms:
    def test_single_constraint_dual_curve(self):
        # With one sample e1 and no regularizer, M(t) = -t e1 e1^T, so
        # D(t) = -t^2/2 + t: a parabola peaking at t = 1 with value 1/2.
        prob = single_axis_problem()
        for t in [0.0, 0.25, 1.0, 2.0, 3.5]:
            assert dual_objective(prob, np.array([t])) == pytest.approx(-0.5 * t * t + t)
            assert dual_gradient(prob, np.array([t]))[0] == pytest.approx(1.0 - t)

    def test_single_constraint_solution(self):
        trained = solve_dual(single_axis_problem())
        assert trained.report.converged
        assert np.allclose(trained.dual.values, [1.0], atol=1e-6)
        assert np.allclose(trained.matrix.entries, [[1.0, 0.0], [0.0, 0.0]], atol=1e-6)
        assert trained.report.dual_objective == pytest.approx(0.5, abs=1e-8)
        assert trained.report.primal_objective == pytest.approx(0.5, abs=1e-8)

    def test_two_axes_give_identity(self):
        prob = ClassProblem(np.eye(2), zero_scatter(2), lam=1.0)
        trained = solve_dual(prob)
        assert trained.report.converged
        assert np.allclose(trained.matrix.entries, np.eye(2), atol=1e-6)
        assert trained.report.primal_objective == pytest.approx(1.0, abs=1e-7)

    def test_assemble_m(self):
        prob = ClassProblem(
            np.array([[1.0, 0.0]]), SymmetricMatrix(np.eye(2)), lam=1.0
        )
        m = assemble_m(prob, np.array([1.0]))
        assert np.allclose(m.entries, [[0.0, 0.0], [0.0, 1.0]])


class TestGradientOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_class_problem(rng, dim=5, n_intra=8, n_extra=12)
        u = rng.uniform(0.0, 2.0, size=8)
        g = dual_gradient(prob, u)
        g_fd = fd_gradient(prob, u)
        assert np.allclose(g, g_fd, rtol=1e-4, atol=1e-6)

    def test_matches_at_origin(self):
        rng = np.random.default_rng(3)
        prob = random_class_problem(rng, dim=4, n_intra=5, n_extra=9)
        u = np.zeros(5)
        g = dual_gradient(prob, u)
        # One-sided differences: the dual is only defined for u >= 0.
        h = 1e-6
        for i in range(5):
            up = u.copy()
            up[i] += h
            fd = (dual_objective(prob, up) - dual_objective(prob, u)) / h
            assert g[i] == pytest.approx(fd, rel=1e-3, abs=1e-5)


class TestSolver:
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_kkt_certificates(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_class_problem(rng, dim=6, n_intra=15, n_extra=30)
        trained = solve_dual(prob)
        assert trained.report.converged
        assert trained.report.termination == "converged"
        rep = kkt_report(prob, trained.dual, trained.matrix)
        scale = max(1.0, abs(rep.primal_objective))
        assert abs(rep.duality_gap) <= 1e-6 * scale
        assert rep.max_violation <= 1e-6
        assert rep.complementary_slackness <= 1e-5
        assert rep.min_eigenvalue >= -1e-8

    def test_kkt_report_rejects_short_dual(self):
        rng = np.random.default_rng(0)
        prob = random_class_problem(rng, dim=6, n_intra=10, n_extra=20)
        trained = solve_dual(prob)
        short = DualVariables(trained.dual.values[:-1])
        with pytest.raises(InvalidInputError, match="expected 10 dual variables"):
            kkt_report(prob, short, trained.matrix)

    def test_dual_objective_does_not_fall_with_more_iterations(self, monkeypatch):
        rng = np.random.default_rng(21)
        prob = random_class_problem(rng, dim=7, n_intra=12, n_extra=20)
        values = []
        for k in range(1, 25):
            monkeypatch.setattr(qml, "MAX_ITERATIONS", k)
            values.append(solve_dual(prob).report.dual_objective)
        assert np.all(np.diff(values) >= -1e-12)

    def test_eig_calls_match_objective_evals(self):
        rng = np.random.default_rng(2)
        prob = random_class_problem(rng, dim=5, n_intra=10, n_extra=15)
        trained = solve_dual(prob)
        assert trained.report.eig_calls == trained.report.objective_evals
        assert trained.report.objective_evals >= trained.report.iterations + 1

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(9)
        prob = random_class_problem(rng, dim=6, n_intra=14, n_extra=25)
        a = solve_dual(prob)
        b = solve_dual(prob)
        assert np.array_equal(a.matrix.entries, b.matrix.entries)
        assert np.array_equal(a.dual.values, b.dual.values)
        assert a.report.iterations == b.report.iterations

    def test_zero_norm_sample_is_infeasible(self):
        bad = ClassProblem(
            np.array([[1.0, 0.0], [0.0, 0.0]]), zero_scatter(2), lam=1.0
        )
        with pytest.raises(InfeasibleProblemError, match="zero norm"):
            solve_dual(bad)

    def test_respects_iteration_cap(self, monkeypatch):
        rng = np.random.default_rng(4)
        prob = random_class_problem(rng, dim=6, n_intra=10, n_extra=20)
        monkeypatch.setattr(qml, "MAX_ITERATIONS", 3)
        trained = solve_dual(prob)
        assert trained.report.iterations == 3
        assert trained.report.converged is False
        assert trained.report.termination == "max_iterations"
        # The reported gradient is the one at the returned multipliers.
        kkt = kkt_report(prob, trained.dual, trained.matrix)
        assert trained.report.grad_inf_norm == kkt.grad_inf_norm

    def test_tolerance_below_rounding_ends_in_line_search_failure(self, monkeypatch):
        # No step can lower -D by the Armijo amount once the gradient is
        # near rounding, so the line search fails before GRAD_TOL is met.
        rng = np.random.default_rng(0)
        prob = random_class_problem(rng, dim=6, n_intra=10, n_extra=20)
        monkeypatch.setattr(qml, "MAX_ITERATIONS", 2000)
        monkeypatch.setattr(qml, "GRAD_TOL", 1e-14)
        trained = solve_dual(prob)
        assert trained.report.termination == "line_search_failed"
        assert trained.report.converged is False
        assert trained.report.iterations < 2000

    def test_margin_scaling_relation(self):
        # P(b, lam) = b * P(1, lam / b): substituting P = bQ rescales the
        # objective and leaves the feasible set written in terms of Q.
        rng = np.random.default_rng(13)
        base = random_class_problem(rng, dim=5, n_intra=10, n_extra=18, lam=0.8)
        scaled = ClassProblem(
            intra=base.intra,
            extra_scatter=base.extra_scatter,
            lam=base.lam * 3.0,
            margin=3.0,
        )
        p1 = solve_dual(base).matrix.entries
        p3 = solve_dual(scaled).matrix.entries
        assert np.allclose(p3, 3.0 * p1, rtol=1e-5, atol=1e-6)


def reference_split_problems(lam):
    """The three class problems of acceptance test 8's reference split."""
    ds = generate_synthetic(SynthSpec(3, 10, 70, 6.0, 1.0, seed=42))
    train, _ = split_random(ds, SplitSpec(20, seed=42), 0)
    return [build_class_problem(train, c, lam) for c in (1, 2, 3)]


def random_problems(count):
    problems = []
    for k in range(count):
        rng = np.random.default_rng([31, k])
        problems.append(random_class_problem(
            rng,
            dim=int(rng.integers(2, 13)),
            n_intra=int(rng.integers(2, 25)),
            n_extra=int(rng.integers(5, 40)),
            lam=(0.1, 1.0, 10.0, 100.0)[k % 4],
            spread=(0.05, 0.5, 2.0)[k % 3],
        ))
    return problems


def f_lower_bound(problem, u, u_new):
    """qml._f_lower_bound from the spectrum at u, as solve_dual calls it."""
    w, y2 = qml._dual_state(problem, u)[4:]
    sq_norms = qml.check_feasible_samples(problem)
    lam_o_norm = problem.lam * float(np.linalg.norm(problem.extra_scatter.entries))
    return qml._f_lower_bound(problem, w, y2, u, u_new, sq_norms, lam_o_norm)


def report_fields(trained):
    r = trained.report
    return (
        trained.dual.values.tobytes(),
        trained.matrix.entries.tobytes(),
        r.iterations,
        r.termination,
        r.dual_objective,
        r.primal_objective,
        r.duality_gap,
        r.grad_inf_norm,
        r.max_violation,
    )


class TestLineSearchScreen:
    """The line search skips a trial whose certified lower bound on f = -D
    already fails the Armijo test; the bound must hold and skip nothing the
    test would accept."""

    PROBLEMS = [*random_problems(10), *(p for lam in (0.1, 1.0, 10.0)
                                       for p in reference_split_problems(lam))]

    @pytest.mark.parametrize("index", range(len(PROBLEMS)))
    def test_bound_is_below_f(self, index):
        prob = self.PROBLEMS[index]
        rng = np.random.default_rng([32, index])
        # Multipliers near the optimum scale like 1/||x||^4.
        unit = 1.0 / float(np.mean(qml.check_feasible_samples(prob))) ** 2
        for _ in range(20):
            scale = unit * 10.0 ** rng.uniform(-2, 2)
            u = scale * rng.exponential(size=prob.n_intra)
            u[rng.random(prob.n_intra) < 0.2] = 0.0
            for reach in (1e-8, 1e-3, 1.0, 30.0):
                u_new = np.maximum(u + reach * scale * rng.normal(size=u.size), 0.0)
                f_new = -dual_objective(prob, u_new)
                assert f_lower_bound(prob, u, u_new) <= f_new

    @pytest.mark.parametrize("index", range(len(PROBLEMS)))
    def test_bound_is_exact_at_zero_step(self, index):
        prob = self.PROBLEMS[index]
        rng = np.random.default_rng([33, index])
        sq_norms = qml.check_feasible_samples(prob)
        unit = 1.0 / float(np.mean(sq_norms)) ** 2
        checked = 0
        for _ in range(20):
            u = unit * 10.0 ** rng.uniform(-2, 2) * rng.exponential(size=prob.n_intra)
            w = qml._dual_state(prob, u)[4]
            if (np.abs(w) <= EIGENVALUE_CLAMP_RTOL * np.abs(w).max()).any():
                continue
            checked += 1
            f = -dual_objective(prob, u)
            # The bound's rounding margin is eps ((m^2 + n) S^2 + 2 b sum(u));
            # allow a few thousand times that.
            s = prob.lam * np.linalg.norm(prob.extra_scatter.entries) + float(u @ sq_norms)
            slack = 1e-12 * ((prob.dim**2 + prob.n_intra) * s * s + prob.margin * u.sum())
            assert 0.0 <= f - f_lower_bound(prob, u, u) <= slack
        assert checked >= 10

    def _compare(self, monkeypatch, problems):
        screened = [solve_dual(p) for p in problems]
        with monkeypatch.context() as patch:
            patch.setattr(qml, "_f_lower_bound", lambda *args: -math.inf)
            plain = [solve_dual(p) for p in problems]
        for a, b in zip(screened, plain):
            assert report_fields(a) == report_fields(b)
            assert a.report.objective_evals == a.report.eig_calls
            assert b.report.objective_evals == b.report.eig_calls
            assert a.report.objective_evals <= b.report.objective_evals
        return screened, plain

    @pytest.mark.parametrize("lam", [0.1, 10.0])
    def test_same_iterates_on_reference_split(self, monkeypatch, lam):
        screened, plain = self._compare(monkeypatch, reference_split_problems(lam))
        if lam == 10.0:
            # The exits other than convergence are covered too.
            assert {t.report.termination for t in screened} == {
                "max_iterations", "line_search_failed"
            }
        for a, b in zip(screened, plain):
            assert a.report.objective_evals < b.report.objective_evals

    def test_same_iterates_on_random_instances(self, monkeypatch):
        self._compare(monkeypatch, random_problems(10))


class TestPrimalRecovery:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_recovered_matrix_is_negative_part_complement(self, seed):
        rng = np.random.default_rng(seed)
        prob = random_class_problem(rng, dim=4, n_intra=6, n_extra=8)
        u = rng.uniform(0.0, 3.0, size=6)
        p = recover_primal(prob, u)
        m = assemble_m(prob, u)
        assert np.allclose(p.entries, -negative_part(m).entries, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(p.entries)) >= -1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_gap_identity(self, seed):
        # primal(P(u)) - D(u) == -u . grad D(u) for every feasible dual point,
        # which is what makes small projected gradients certify small gaps.
        rng = np.random.default_rng(seed)
        prob = random_class_problem(rng, dim=4, n_intra=6, n_extra=8)
        u = rng.uniform(0.0, 3.0, size=6)
        p = recover_primal(prob, u)
        gap = primal_objective(prob, p) - dual_objective(prob, u)
        identity = -float(u @ dual_gradient(prob, u))
        assert gap == pytest.approx(identity, rel=1e-9, abs=1e-9)

    def test_constraint_values_shape(self):
        prob = single_axis_problem()
        p = recover_primal(prob, np.array([1.0]))
        vals = constraint_values(prob, p)
        assert vals.shape == (1,)
        assert vals[0] == pytest.approx(1.0)
