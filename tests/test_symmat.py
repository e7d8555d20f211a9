"""Symmetric-matrix algebra: hand-checked values plus algebraic properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dqml.errors import InvalidInputError
from dqml.qml import assemble_m, dual_objective, random_class_problem
from dqml.symmat import (
    EIGENVALUE_CLAMP_RTOL,
    PSD_CERT_TOL,
    EigenDecomposition,
    SymmetricMatrix,
    _clamped_part,
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
        dec = eigen_decompose(sym([[1.0, 0.0], [0.0, 3.0]]))
        assert np.allclose(dec.eigenvalues, [3.0, 1.0])

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
        dec = eigen_decompose(a)
        w, v = dec.eigenvalues, dec.eigenvectors
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


def test_decomposition_dataclass_fields():
    dec = EigenDecomposition(eigenvalues=np.array([1.0]), eigenvectors=np.eye(1))
    assert dec.eigenvalues.shape == (1,)


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
