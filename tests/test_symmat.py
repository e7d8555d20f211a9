"""Symmetric-matrix algebra: hand-checked values plus algebraic properties."""

import math
import threading
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dqml import symmat
from dqml.errors import InvalidInputError, NumericalFailureError
from dqml.qml import assemble_m, dual_objective, random_class_problem, solve_dual
from dqml.symmat import (
    EIGENVALUE_CLAMP_RTOL,
    PSD_CERT_TOL,
    SymmetricMatrix,
    _clamped_part,
    _eigh_descending,
    eig_call_count,
    eigen_decompose,
    frobenius_norm,
    min_eigenvalue,
    negative_part,
    positive_part,
    quad_forms,
    trace_product,
)


def sym(rows):
    return SymmetricMatrix(np.array(rows, dtype=float))


def symmetric_matrices(max_dim=6, max_abs=10.0):
    return st.integers(1, max_dim).flatmap(
        lambda n: hnp.arrays(
            np.float64,
            (n, n),
            elements=st.floats(-max_abs, max_abs, width=64),
        ).map(lambda b: SymmetricMatrix((b + b.T) / 2.0))
    )


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            SymmetricMatrix(np.zeros((2, 3)))

    def test_rejects_vector(self):
        with pytest.raises(InvalidInputError):
            SymmetricMatrix(np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            SymmetricMatrix(np.zeros((0, 0)))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError, match="not symmetric"):
            SymmetricMatrix(np.array([[1.0, 2.0], [2.1, 1.0]]))

    def test_accepts_roundoff_asymmetry(self):
        a = np.array([[1.0, 0.5 + 1e-13], [0.5, 1.0]])
        assert SymmetricMatrix(a).dim == 2

    def test_entries_are_frozen(self):
        m = sym([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError):
            m.entries[0, 0] = 7.0

    def test_does_not_alias_input(self):
        src = np.eye(2)
        m = SymmetricMatrix(src)
        src[0, 0] = 5.0
        assert m.entries[0, 0] == 1.0

    def test_nan_entries_construct_but_do_not_decompose(self):
        m = SymmetricMatrix(np.full((2, 2), np.nan))
        with pytest.raises(InvalidInputError, match="non-finite"):
            eigen_decompose(m)


class TestHandChecked:
    def test_eigen_decompose_diagonal(self):
        w, v = eigen_decompose(sym([[1.0, 0.0], [0.0, 3.0]]))
        assert np.allclose(w, [3.0, 1.0])
        assert np.allclose(np.abs(v), [[0.0, 1.0], [1.0, 0.0]])

    def test_positive_part_diagonal(self):
        p = positive_part(sym([[1.0, 0.0], [0.0, -2.0]]))
        assert np.allclose(p.entries, [[1.0, 0.0], [0.0, 0.0]])

    def test_negative_part_diagonal(self):
        n = negative_part(sym([[1.0, 0.0], [0.0, -2.0]]))
        assert np.allclose(n.entries, [[0.0, 0.0], [0.0, -2.0]])

    def test_parts_of_off_diagonal_flip(self):
        # [[0,1],[1,0]] has eigenpairs (+1, (1,1)/sqrt2) and (-1, (1,-1)/sqrt2)
        a = sym([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(positive_part(a).entries, [[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(negative_part(a).entries, [[-0.5, 0.5], [0.5, -0.5]])

    def test_trace_product_identity(self):
        assert trace_product(sym([[1.0, 0.0], [0.0, 1.0]]), sym([[2.0, 5.0], [5.0, 3.0]])) == 5.0

    def test_frobenius_norm(self):
        assert frobenius_norm(sym([[3.0, 0.0], [0.0, 4.0]])) == pytest.approx(5.0)

    def test_min_eigenvalue(self):
        assert min_eigenvalue(sym([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0)

    def test_trace_product_dim_mismatch(self):
        with pytest.raises(InvalidInputError, match="mismatch"):
            trace_product(sym([[1.0]]), sym([[1.0, 0.0], [0.0, 1.0]]))


class TestProperties:
    @given(symmetric_matrices())
    @settings(max_examples=150)
    def test_decomposition_reconstructs(self, a):
        w, v = eigen_decompose(a)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.allclose(v.T @ v, np.eye(a.dim), atol=1e-10)
        assert np.allclose((v * w) @ v.T, a.entries, atol=1e-9)

    @given(symmetric_matrices())
    @settings(max_examples=150)
    def test_parts_sum_to_matrix(self, a):
        total = positive_part(a).entries + negative_part(a).entries
        assert np.allclose(total, a.entries, atol=1e-7)

    @given(symmetric_matrices())
    @settings(max_examples=150)
    def test_parts_lie_in_their_cones(self, a):
        assert min_eigenvalue(positive_part(a)) >= -PSD_CERT_TOL
        assert min_eigenvalue(negative_part(a)) <= PSD_CERT_TOL
        neg = negative_part(a)
        assert np.max(np.linalg.eigvalsh(neg.entries)) <= PSD_CERT_TOL

    @given(symmetric_matrices())
    @settings(max_examples=100)
    def test_parts_are_orthogonal(self, a):
        scale = 1.0 + frobenius_norm(a) ** 2
        assert abs(trace_product(positive_part(a), negative_part(a))) <= 1e-7 * scale

    @given(symmetric_matrices())
    @settings(max_examples=100)
    def test_positive_part_idempotent(self, a):
        p = positive_part(a)
        assert np.allclose(positive_part(p).entries, p.entries, atol=1e-7)

    @given(symmetric_matrices(), symmetric_matrices())
    @settings(max_examples=100)
    def test_trace_product_symmetric_and_matches_trace(self, a, b):
        if a.dim != b.dim:
            with pytest.raises(InvalidInputError):
                trace_product(a, b)
            return
        t = trace_product(a, b)
        assert t == pytest.approx(trace_product(b, a))
        assert t == pytest.approx(float(np.trace(a.entries @ b.entries)), abs=1e-8)

    @given(symmetric_matrices())
    @settings(max_examples=100)
    def test_frobenius_norm_squared_is_self_product(self, a):
        assert frobenius_norm(a) ** 2 == pytest.approx(trace_product(a, a), abs=1e-8)


def test_eig_counter_tracks_decompositions():
    a = sym([[1.0, 0.0], [0.0, -1.0]])
    before = eig_call_count()
    eigen_decompose(a)
    positive_part(a)
    negative_part(a)
    min_eigenvalue(a)
    assert eig_call_count() - before == 4
    frobenius_norm(a)
    trace_product(a, a)
    assert eig_call_count() - before == 4


def test_eig_counter_is_per_thread():
    a = sym([[1.0, 0.0], [0.0, -1.0]])
    eigen_decompose(a)  # so a count shared between threads would not read 0
    before = eig_call_count()
    seen = []

    def other():
        seen.append(eig_call_count())
        eigen_decompose(a)
        min_eigenvalue(a)
        seen.append(eig_call_count())

    t = threading.Thread(target=other)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive()
    # A new thread starts at 0, and its calls leave this thread's count alone.
    assert seen == [0, 2]
    assert eig_call_count() == before


def _eigh_case(kind, m):
    rng = np.random.default_rng([m, len(kind)])
    b = rng.normal(size=(m, m))
    random = (b + b.T) / 2.0
    return {
        "random": random,
        "identity": np.eye(m),
        "zeros": np.zeros((m, m)),
        # Every eigenvalue but possibly one is tied with another.
        "diagonal-ties": np.diag(np.resize([2.0, -1.0, 2.0, 0.0, -1.0], m)),
        "scaled-1e300": 1e300 * random,
        "scaled-1e-300": 1e-300 * random,
    }[kind]


class TestDirectEigh:
    """symmat calls numpy's LAPACK syevd gufunc itself, without the Python
    layer of np.linalg.eigh. These tests pin that the private gufunc is
    still there, is still what np.linalg.eigh uses, and gives its bits."""

    @pytest.mark.parametrize("m", [1, 2, 10, 64])
    @pytest.mark.parametrize(
        "kind",
        ["random", "identity", "zeros", "diagonal-ties", "scaled-1e300", "scaled-1e-300"],
    )
    def test_matches_numpy_eigh_reversed(self, kind, m):
        a = _eigh_case(kind, m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, v = _eigh_descending(a)
        want_w, want_v = np.linalg.eigh(a)
        assert np.array_equal(w, want_w[::-1])
        assert np.array_equal(v, want_v[:, ::-1])
        # Contiguous copies, not views of the gufunc's output.
        assert w.flags.c_contiguous and v.flags.c_contiguous

    def test_numpy_eigh_dispatches_to_the_same_gufunc(self, monkeypatch):
        gufunc = np.linalg._umath_linalg.eigh_lo
        assert symmat._umath_linalg is np.linalg._umath_linalg
        assert gufunc.signature == "(m,m)->(m),(m,m)"
        assert "d->dd" in gufunc.types
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return gufunc(*args, **kwargs)

        monkeypatch.setattr(np.linalg._umath_linalg, "eigh_lo", spy)
        np.linalg.eigh(np.eye(3))
        _eigh_descending(np.eye(3))
        assert calls == [{"signature": "d->dd"}] * 2

    def test_each_call_counts_once(self):
        a = _eigh_case("random", 10)
        for k in range(1, 4):
            before = eig_call_count()
            for _ in range(k):
                _eigh_descending(a)
            assert eig_call_count() - before == k

    def test_nan_output_is_a_numerical_failure(self, monkeypatch):
        def nan_eigh(arr, signature):
            assert signature == "d->dd"
            return np.full(arr.shape[:1], np.nan), np.full(arr.shape, np.nan)

        monkeypatch.setattr(symmat, "_umath_linalg", types.SimpleNamespace(eigh_lo=nan_eigh))
        with pytest.raises(np.linalg.LinAlgError):
            eigen_decompose(sym([[1.0, 0.0], [0.0, 2.0]]))
        prob = random_class_problem(np.random.default_rng(3), dim=4, n_intra=5, n_extra=8)
        with pytest.raises(NumericalFailureError, match="eigendecomposition of M"):
            solve_dual(prob)


def _layout(x, order):
    if order == "C":
        return np.ascontiguousarray(x)
    if order == "F":
        return np.asfortranarray(x)
    # Every other row of a larger C array.
    wide = np.full((2 * x.shape[0], x.shape[1]), np.nan)
    wide[::2] = x
    return wide[::2]


@pytest.mark.parametrize("order", ["C", "F", "row-strided"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (7, 3), (500, 64), (21000, 10)])
def test_quad_forms_matches_the_triple_sum(shape, order):
    n, m = shape
    rng = np.random.default_rng([n, m])
    b = rng.normal(size=(m, m))
    p = np.eye(m) + b @ b.T / m  # PSD and well conditioned
    x = rng.normal(size=shape)
    if n > 1:
        x[n // 2] = 0.0
    x = _layout(x, order)
    got = quad_forms(p, x)
    # sum_jk x_ij P_jk x_ik, each row summed with one correct rounding.
    want = np.array([math.fsum((np.outer(row, row) * p).ravel()) for row in x])
    assert got.shape == (n,)
    if n > 1:
        assert got[n // 2] == 0.0
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def _parts_by_definition(w):
    """(positive, negative) parts: |w| <= EIGENVALUE_CLAMP_RTOL * max|w| is zeroed."""
    band = np.abs(w) <= EIGENVALUE_CLAMP_RTOL * np.max(np.abs(w))
    return np.where(band | (w < 0), 0.0, w), np.where(band | (w > 0), 0.0, w)


INSIDE = 0.999 * EIGENVALUE_CLAMP_RTOL
OUTSIDE = 1.001 * EIGENVALUE_CLAMP_RTOL


@pytest.mark.parametrize(
    "w",
    [
        [0.0, 0.0, 0.0],
        [1.0, INSIDE, -INSIDE, -0.5],
        [1.0, OUTSIDE, -OUTSIDE, -0.5],
        [1.0, EIGENVALUE_CLAMP_RTOL, -EIGENVALUE_CLAMP_RTOL],
        # max|w| at the negative end.
        [0.5 * INSIDE, -OUTSIDE, -1.0],
        [-0.5 * INSIDE, -1.0],
        [-3.0],
        [2.0, 0.0, -3.0],
    ],
)
def test_clamped_part_matches_definition(w):
    w = np.array(w)
    pos, neg = _parts_by_definition(w)
    assert np.array_equal(_clamped_part(w, negative=False), pos)
    assert np.array_equal(_clamped_part(w, negative=True), neg)
    # The public parts use the same rule.
    assert np.array_equal(np.diag(negative_part(SymmetricMatrix(np.diag(w))).entries), neg)


def test_dual_objective_is_negative_part_norm():
    rng = np.random.default_rng(11)
    for lam in (0.1, 1.0, 10.0):
        prob = random_class_problem(rng, dim=5, n_intra=7, n_extra=12, lam=lam)
        for _ in range(5):
            u = rng.uniform(0.0, 3.0, size=prob.n_intra)
            half_sq = 0.5 * frobenius_norm(negative_part(assemble_m(prob, u))) ** 2
            linear = prob.margin * float(np.sum(u))
            assert abs(dual_objective(prob, u) - (linear - half_sq)) <= 1e-12 * (
                half_sq + linear
            )
