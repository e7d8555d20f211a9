"""Dual solver tests: closed forms, a finite-difference gradient oracle,
optimality certificates, and structural invariants."""

import dataclasses
import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqml import qml
from dqml.errors import InfeasibleProblemError, InvalidInputError
from dqml.pipeline import build_class_problem
from dqml.qml import (
    ClassProblem,
    DualVariables,
    KktReport,
    assemble_m,
    build_scatter,
    constraint_values,
    dual_gradient,
    dual_objective,
    kkt_report,
    primal_objective,
    random_class_problem,
    TrainedQuadraticMatrix,
    recover_primal,
    solve_dual,
)
from dqml.symmat import EIGENVALUE_CLAMP_RTOL, SymmetricMatrix, negative_part

from conftest import reference_train

EPS = float(np.finfo(float).eps)


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
        with pytest.raises(InvalidInputError, match="lam must be positive and finite, got True"):
            ClassProblem(np.ones((1, 2)), zero_scatter(2), lam=True)
        assert ClassProblem(np.ones((1, 2)), zero_scatter(2), lam=np.float32(2.0)).lam == 2.0

    def test_rejects_bad_margin(self):
        with pytest.raises(InvalidInputError):
            ClassProblem(np.ones((1, 2)), zero_scatter(2), lam=1.0, margin=0.0)
        with pytest.raises(InvalidInputError, match="margin must be positive and finite, got True"):
            ClassProblem(np.ones((1, 2)), zero_scatter(2), lam=1.0, margin=True)

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
                # ||x_i||^2 overflows although the samples are finite.
                (np.array([[1e160, 1.0], [1e160, 2.0]]), zero_scatter(2), 1.0),
            ]
            for intra, scatter, lam in cases:
                with pytest.raises(InvalidInputError, match="non-finite"):
                    ClassProblem(intra, scatter, lam=lam)

    def test_derived_fields(self):
        rng = np.random.default_rng(5)
        prob = random_class_problem(rng, dim=4, n_intra=6, n_extra=9, lam=0.7)
        x = prob.intra
        assert prob.sq_norms.tobytes() == np.einsum("ij,ij->i", x, x).tobytes()
        assert not prob.sq_norms.flags.writeable
        with pytest.raises(ValueError):
            prob.sq_norms[0] = 1.0
        assert prob.lam_o_norm == prob.lam * float(np.linalg.norm(prob.extra_scatter.entries))
        doubled = dataclasses.replace(prob, lam=2.0 * prob.lam)
        assert doubled.lam_o_norm == doubled.lam * float(
            np.linalg.norm(prob.extra_scatter.entries)
        )
        assert doubled.lam_o_norm != prob.lam_o_norm
        assert np.array_equal(doubled.sq_norms, prob.sq_norms)

    def test_dual_variables_reject_negative(self):
        with pytest.raises(InvalidInputError):
            DualVariables(np.array([0.5, -0.1]))

    def test_dual_variables_reject_2d_and_nonfinite(self):
        with pytest.raises(InvalidInputError, match="must be 1-d"):
            DualVariables(np.ones((2, 2)))
        with pytest.raises(InvalidInputError, match="dual variables have non-finite entries"):
            DualVariables(np.array([0.5, np.nan]))


class TestBuildScatter:
    def test_two_samples(self):
        s = build_scatter(np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert np.allclose(s.entries, [[2.0, 1.0], [1.0, 1.0]])

    def test_empty_needs_dim(self):
        assert build_scatter(np.zeros((0, 3))).entries.shape == (3, 3)
        assert np.all(build_scatter(np.zeros((0, 3))).entries == 0.0)

    def test_rows_need_dim(self):
        for shape in ((0, 0), (5, 0)):
            with pytest.raises(InvalidInputError, match="dimension"):
                build_scatter(np.ones(shape))

    def test_rejects_1d_and_nonfinite(self):
        with pytest.raises(InvalidInputError, match="expected a 2-d sample array"):
            build_scatter(np.ones(3))
        with pytest.raises(InvalidInputError, match="samples have non-finite entries"):
            build_scatter(np.array([[1.0, np.nan]]))

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

    def test_dual_objective_rejects_nan_point(self):
        with pytest.raises(InvalidInputError, match="dual variables have non-finite entries"):
            dual_objective(single_axis_problem(), np.array([np.nan]))

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

    def test_concurrent_solves_count_their_own_eigendecompositions(self):
        # Two solves start together in two threads; each report counts only
        # the decompositions of its own thread.
        barrier = threading.Barrier(2)

        def solve(prob):
            barrier.wait(timeout=60)
            return solve_dual(prob).report

        rng = np.random.default_rng(30)
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(5):
                probs = [
                    random_class_problem(rng, dim=30, n_intra=60, n_extra=120)
                    for _ in range(2)
                ]
                for rep in pool.map(solve, probs, timeout=120):
                    assert rep.eig_calls == rep.objective_evals

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(9)
        prob = random_class_problem(rng, dim=6, n_intra=14, n_extra=25)
        a = solve_dual(prob)
        b = solve_dual(prob)
        assert np.array_equal(a.matrix.entries, b.matrix.entries)
        assert np.array_equal(a.dual.values, b.dual.values)
        assert a.report.iterations == b.report.iterations
        # Reports compare equal without their wall times.
        assert a.report == b.report
        assert a.report.seconds >= 0.0 and b.report.seconds >= 0.0

    def test_steepest_descent_fallback(self, monkeypatch):
        # A two-loop direction that is not a descent direction is replaced by
        # -g_free. So an ascent direction g gives the same iterates as the
        # descent direction -g, which the solver takes as it stands.
        prob = random_class_problem(np.random.default_rng(3), dim=5, n_intra=6, n_extra=12)
        calls = []

        def ascent(g, pairs):
            calls.append(1)
            return -g

        monkeypatch.setattr(qml, "_two_loop_direction", ascent)
        fallback = solve_dual(prob)
        monkeypatch.setattr(qml, "_two_loop_direction", lambda g, pairs: g.copy())
        steepest = solve_dual(prob)
        assert calls
        assert fallback.report == steepest.report
        assert np.array_equal(fallback.dual.values, steepest.dual.values)

    def test_zero_norm_sample_is_infeasible(self):
        with pytest.raises(InfeasibleProblemError, match="sample 1 has zero norm"):
            ClassProblem(np.array([[1.0, 0.0], [0.0, 0.0]]), zero_scatter(2), lam=1.0)

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
        # With b = 1, a nonzero entry of g = -(b + y2 @ neg) is at least
        # 2^-53 (the Newton phase reaches 1.8e-15 here), so 1e-17 is below
        # rounding.
        rng = np.random.default_rng(0)
        prob = random_class_problem(rng, dim=6, n_intra=10, n_extra=20)
        monkeypatch.setattr(qml, "MAX_ITERATIONS", 2000)
        monkeypatch.setattr(qml, "GRAD_TOL", 1e-17)
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
    return [build_class_problem(reference_train(), c, lam) for c in (1, 2, 3)]


def wide_classes_problems(lam, classes=(1, 2, 3)):
    """Class problems of the wide-classes benchmark's training set: 10
    classes at m=64, unnormalised samples, 20 per class."""
    train = reference_train(10, 64)
    return [build_class_problem(train, c, lam) for c in classes]


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


# Settings that force the exits other than convergence on the reference
# split: a cap inside the L-BFGS phase, and a tolerance below rounding (see
# test_tolerance_below_rounding_ends_in_line_search_failure), at which the
# Newton phase's line search fails.
FORCED_EXITS = (("MAX_ITERATIONS", 100, "max_iterations"),
                ("GRAD_TOL", 1e-17, "line_search_failed"))


def f_lower_bound(problem, u, u_new):
    """qml._f_lower_bound from the spectrum at u, as solve_dual calls it."""
    w, y2 = qml._dual_state(problem, u, problem.lam_o)[4:6]
    return qml._f_lower_bound(problem, w, y2, u, u_new, u_new - u)


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

    PROBLEMS = [*random_problems(10),
                *(p for lam in (0.1, 1.0, 10.0) for p in reference_split_problems(lam)),
                *wide_classes_problems(0.1)]

    @pytest.mark.parametrize("index", range(len(PROBLEMS)))
    def test_bound_is_below_f(self, index):
        prob = self.PROBLEMS[index]
        rng = np.random.default_rng([32, index])
        # Multipliers near the optimum scale like 1/||x||^4.
        unit = 1.0 / float(np.mean(prob.sq_norms)) ** 2
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
        unit = 1.0 / float(np.mean(prob.sq_norms)) ** 2
        checked = 0
        for _ in range(20):
            u = unit * 10.0 ** rng.uniform(-2, 2) * rng.exponential(size=prob.n_intra)
            w = qml._dual_state(prob, u, prob.lam_o)[4]
            if (np.abs(w) <= EIGENVALUE_CLAMP_RTOL * np.abs(w).max()).any():
                continue
            checked += 1
            f = -dual_objective(prob, u)
            # At a zero step the bound is f less its rounding margin
            # tau = ||z|| d + m (1e-10 S)^2 / 2 + eps ((m + 1) ||z||^2 + 2 b sum(u)),
            # with z the negative eigenvalues and d = 2 eps S (m^(3/2) + m n).
            m, n = prob.dim, prob.n_intra
            s = prob.lam_o_norm + float(u @ prob.sq_norms)
            z_norm = math.sqrt(float(np.square(np.minimum(w, 0.0)).sum()))
            d = 2.0 * EPS * s * (m**1.5 + m * n)
            tau = z_norm * d + 0.5 * m * (1e-10 * s) ** 2 + EPS * (
                (m + 1) * z_norm**2 + 2.0 * prob.margin * u.sum()
            )
            assert 0.0 <= f - f_lower_bound(prob, u, u) <= 2.0 * tau
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
        for a, b in zip(screened, plain):
            assert a.report.objective_evals < b.report.objective_evals
        if lam == 10.0:
            # The exits other than convergence are covered too.
            for name, value, termination in FORCED_EXITS:
                with monkeypatch.context() as patch:
                    patch.setattr(qml, name, value)
                    screened, _ = self._compare(patch, reference_split_problems(lam))
                assert {t.report.termination for t in screened} == {termination}

    def test_same_iterates_on_random_instances(self, monkeypatch):
        self._compare(monkeypatch, random_problems(10))

    def test_same_iterates_at_m64(self, monkeypatch):
        # Unnormalised samples at m=64, where the margin's scale matters
        # most; the cap bounds the time.
        monkeypatch.setattr(qml, "MAX_ITERATIONS", 200)
        screened, plain = self._compare(monkeypatch, wide_classes_problems(0.1, (1, 2)))
        for a, b in zip(screened, plain):
            assert a.report.objective_evals < b.report.objective_evals

    @staticmethod
    def overflowing_problem():
        # ||lam O||_F overflows although every entry of lam O is finite, so
        # the bound's scale S is inf. M(u) = diag(1e160, -1e152 (u_1 + 4 u_2))
        # is diagonal, so its spectrum is exact, and the line search
        # rejects dozens of trials at each step.
        extra = np.diag([1e160, 0.0])
        intra = np.array([[0.0, 1e76], [0.0, 2e76]])
        return ClassProblem(intra, SymmetricMatrix(extra), lam=1.0)

    def test_overflowing_scale_makes_the_bound_nan(self):
        prob = self.overflowing_problem()
        u = np.zeros(prob.n_intra)
        with np.errstate(over="ignore"):
            assert math.isinf(float(np.linalg.norm(prob.extra_scatter.entries)))
            # z = 0 at a zero step, so tau = 0 * inf.
            assert math.isnan(f_lower_bound(prob, u, u))

    def test_nan_bound_evaluates_every_trial(self, monkeypatch):
        # A NaN or infinite margin must never skip a trial.
        (screened,), (plain,) = self._compare(monkeypatch, [self.overflowing_problem()])
        assert screened.report.termination == "line_search_failed"
        assert screened.report.objective_evals == plain.report.objective_evals
        assert screened.report.objective_evals > 10 * screened.report.iterations


class TestSolveReportCertificate:
    """solve_dual's report carries the certificate kkt_report computes for
    the returned (dual, matrix) pair, bit for bit, and counts one eigh per
    evaluation. Its suboptimality is not below zero by more than rounding,
    converged or not."""

    @staticmethod
    def check(problems):
        terminations = set()
        for prob in problems:
            trained = solve_dual(prob)
            rep = trained.report
            assert isinstance(rep, KktReport)
            kkt = kkt_report(prob, trained.dual, trained.matrix)
            for field in dataclasses.fields(KktReport):
                assert getattr(rep, field.name).hex() == getattr(kkt, field.name).hex(), (
                    field.name
                )
            assert rep.eig_calls == rep.objective_evals
            assert rep.suboptimality >= -1e-12 * max(1.0, abs(rep.dual_objective))
            terminations.add(rep.termination)
        return terminations

    def test_random_instances(self):
        self.check(random_problems(10))

    def test_reference_split_covers_every_exit(self, monkeypatch):
        problems = [*reference_split_problems(0.1), *reference_split_problems(10.0)]
        assert self.check(problems) == {"converged"}
        for name, value, termination in FORCED_EXITS:
            with monkeypatch.context() as patch:
                patch.setattr(qml, name, value)
                assert self.check(problems) == {termination}


def hessian_parts(problem, u):
    """y = X V, w and neg of M(u), as _newton_step passes them to _dual_hessian."""
    _, _, _, neg, w, _, y = qml._dual_state(problem, u, problem.lam_o)
    return y, w, neg


class TestDualHessian:
    """qml._dual_hessian is the Jacobian of the gradient of f = -D wherever
    no eigenvalue of M(u) is zero, and its r m-column form equals the full
    sum over all m^2 pairs of eigenvalues."""

    @staticmethod
    def points(problem, seed, count):
        """Multipliers, some zero, at scales around the one where
        sum_i u_i ||x_i||^2 = ||lam O||_F, whose M(u) has a negative
        eigenvalue and none within 1e-3 max|w| of zero."""
        rng = np.random.default_rng(seed)
        unit = problem.lam_o_norm / float(problem.sq_norms.sum())
        found = []
        for _ in range(500):
            u = unit * 10.0 ** rng.uniform(-0.5, 1.5) * rng.exponential(size=problem.n_intra)
            u[rng.random(problem.n_intra) < 0.2] = 0.0
            w = hessian_parts(problem, u)[1]
            if (w < 0).any() and np.abs(w).min() > 1e-3 * np.abs(w).max():
                found.append(u)
                if len(found) == count:
                    return found
        raise AssertionError(f"found {len(found)} of {count} points")

    def check_central_differences(self, problem, seed):
        for u in self.points(problem, seed, 3):
            h_matrix = qml._dual_hessian(*hessian_parts(problem, u))
            step = 1e-6 * float(u.max())
            fd = np.empty_like(h_matrix)
            for j in range(u.size):
                e = np.zeros_like(u)
                e[j] = step
                # dual_gradient is the gradient of D = -f.
                fd[:, j] = (dual_gradient(problem, u - e)
                            - dual_gradient(problem, u + e)) / (2 * step)
            scale = float(np.abs(h_matrix).max())
            assert scale > 0.0
            assert np.abs(h_matrix - fd).max() <= 1e-7 * scale

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_central_differences_on_random_instances(self, seed):
        rng = np.random.default_rng([34, seed])
        self.check_central_differences(
            random_class_problem(rng, dim=6, n_intra=9, n_extra=15, lam=(0.1, 10.0)[seed % 2]),
            seed,
        )

    @pytest.mark.parametrize("lam", [0.1, 10.0])
    def test_matches_central_differences_on_reference_split(self, lam):
        for c, prob in enumerate(reference_split_problems(lam)):
            self.check_central_differences(prob, [35, c])

    @pytest.mark.parametrize("lam", [0.1, 10.0])
    def test_negative_pairs_equal_the_full_sum(self, lam):
        problems = [*random_problems(10), *reference_split_problems(lam)]
        for k, prob in enumerate(problems):
            for u in self.points(prob, [36, k], 2):
                y, w, neg = hessian_parts(prob, u)
                # Omega over all m^2 pairs: divided differences of min(0, .).
                gap = w[:, None] - w
                with np.errstate(divide="ignore", invalid="ignore"):
                    omega = np.where(gap != 0.0, (neg[:, None] - neg) / gap,
                                     (neg < 0.0)[:, None] * 1.0)
                full = np.einsum("kl,ik,il,jk,jl->ij", omega, y, y, y, y)
                h_matrix = qml._dual_hessian(y, w, neg)
                assert np.abs(h_matrix - full).max() <= 1e-12 * np.abs(full).max()

    def test_vanishes_where_m_is_psd(self):
        prob = random_class_problem(np.random.default_rng(37), dim=5, n_intra=7, n_extra=20)
        u = np.zeros(prob.n_intra)
        assert (hessian_parts(prob, u)[1] > 0.0).all()
        assert not qml._dual_hessian(*hessian_parts(prob, u)).any()


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

    def test_matrix_of_the_wrong_dimension_rejected(self):
        p = SymmetricMatrix(np.eye(3))
        for fn in (primal_objective, constraint_values):
            with pytest.raises(InvalidInputError, match="matrix is 3-dimensional, problem is 2"):
                fn(single_axis_problem(), p)


class TestSuboptimality:
    """KktReport.suboptimality = primal(s P) - D(u) with s P feasible: a
    bound on the distance from the optimum that weak duality keeps >= 0."""

    def test_bound_is_primal_of_the_rescaled_matrix_minus_d(self):
        prob = random_class_problem(np.random.default_rng(6), dim=5, n_intra=8, n_extra=12)
        u = np.full(prob.n_intra, 0.5)  # far from optimal: P violates constraints
        p = recover_primal(prob, u)
        rep = kkt_report(prob, DualVariables(u), p)
        s = prob.margin / float(np.min(constraint_values(prob, p)))
        assert rep.max_violation > 0.0 and s > 1.0
        want = primal_objective(prob, SymmetricMatrix(s * p.entries)) - dual_objective(prob, u)
        assert rep.suboptimality == pytest.approx(want, rel=1e-12)
        assert rep.suboptimality > rep.duality_gap

    def test_feasible_matrix_bound_is_the_duality_gap(self):
        # Past the optimum every constraint holds, so s = 1.
        prob = random_class_problem(np.random.default_rng(6), dim=5, n_intra=8, n_extra=12)
        u = np.full(prob.n_intra, 2.0)
        rep = kkt_report(prob, DualVariables(u), recover_primal(prob, u))
        assert rep.max_violation == 0.0 and rep.duality_gap > 1.0
        assert rep.suboptimality == rep.duality_gap

    def test_zero_matrix_bound_is_infinite(self):
        prob = single_axis_problem()
        rep = kkt_report(prob, DualVariables([0.0]), recover_primal(prob, np.zeros(1)))
        assert rep.suboptimality == math.inf


class TestFactor:
    """A trained matrix is held as its m x r factor W, P = W W^T, r <= n_c."""

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_reference_split_factors_have_at_most_n_c_columns(self, lam):
        for prob in reference_split_problems(lam):
            w = solve_dual(prob).factor
            assert w.shape[0] == prob.dim and 1 <= w.shape[1] <= prob.n_intra

    @pytest.mark.parametrize("lam", [0.1, 1.0])
    def test_wide_classes_factors_have_at_most_n_c_columns(self, lam):
        for prob in wide_classes_problems(lam, classes=range(1, 11)):
            w = solve_dual(prob).factor
            assert w.shape[0] == prob.dim and 1 <= w.shape[1] <= prob.n_intra

    def test_trained_and_recovered_matrices_are_equal(self):
        prob = random_problems(1)[0]
        trained = solve_dual(prob)
        p = trained.matrix
        assert np.array_equal(p.entries, recover_primal(prob, trained.dual.values).entries)
        assert np.array_equal(p.entries, qml._primal_from(trained.factor).entries)
        assert np.allclose(p.entries, -negative_part(assemble_m(prob, trained.dual.values)).entries,
                           rtol=0, atol=1e-12 * np.abs(p.entries).max())
        # P is formed at each access, not kept beside the factor.
        assert trained.matrix is not p and not trained.factor.flags.writeable

    def test_bad_factors_are_refused(self):
        for bad in (np.ones(3), np.ones((2, 3)), np.ones((0, 0)), np.array([[np.nan]])):
            with pytest.raises(InvalidInputError, match="factor must be a finite m x r array"):
                TrainedQuadraticMatrix(bad, None, None)
