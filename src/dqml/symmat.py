"""Dense symmetric-matrix algebra.

Eigendecomposition, spectral positive/negative parts, Frobenius inner
products, and PSD certification. Everything here is a pure function of
immutable values; heavy lifting is delegated to LAPACK via numpy.
Decompositions call numpy's LAPACK ``syevd`` gufunc, the one
``np.linalg.eigh`` dispatches to, without that function's Python layer.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InvalidInputError

SYMMETRY_RTOL = 1e-12

# Eigenvalues with |w| <= EIGENVALUE_CLAMP_RTOL * max|w| belong to neither the
# positive nor the negative part: sign-flipping noise near zero would otherwise
# break the orthogonality of the two parts.
EIGENVALUE_CLAMP_RTOL = 1e-10

# Absolute floor on the minimum eigenvalue for PSD certification.
PSD_CERT_TOL = 1e-8

# One count per thread, so a difference of two readings counts only the
# calling thread's decompositions, whatever other threads do meanwhile.
_EIG_CALLS = threading.local()


def eig_call_count() -> int:
    """Number of dense eigendecompositions performed by the calling thread."""
    return getattr(_EIG_CALLS, "n", 0)


@dataclass(frozen=True)
class SymmetricMatrix:
    """A dense real symmetric matrix, validated and immutable."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidInputError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise InvalidInputError("matrix dimension must be at least 1")
        # Non-finite or huge entries make arr - arr.T nan or inf; the equality
        # and nan tests below decide those entries, so numpy need not warn.
        with np.errstate(invalid="ignore", over="ignore"):
            diff = np.abs(arr - arr.T)
            tol = SYMMETRY_RTOL * np.maximum(1.0, np.abs(arr))
            ok = (diff <= tol) | (arr == arr.T) | (np.isnan(arr) & np.isnan(arr.T))
        if not ok.all():
            i, j = np.argwhere(~ok)[0]
            raise InvalidInputError(
                f"matrix is not symmetric at ({i},{j}): {arr[i, j]} vs {arr[j, i]}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _eigh_descending(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Counted eigendecomposition of a raw array, eigenvalues descending."""
    _EIG_CALLS.n = eig_call_count() + 1
    # np.linalg.eigh(arr) computes the same bits through this call. When
    # syevd does not converge, the gufunc fills every output with NaN, and
    # np.linalg.eigh would raise LinAlgError; so does this.
    w, v = _umath_linalg.eigh_lo(arr, signature="d->dd")
    if math.isnan(w[0]):
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    return w[::-1].copy(), v[:, ::-1].copy()


def _checked_eigh(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_eigh_descending of an array that must have only finite entries."""
    if not np.isfinite(arr).all():
        raise InvalidInputError("matrix has non-finite entries")
    return _eigh_descending(arr)


def eigen_decompose(a: SymmetricMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition A = V diag(w) V^T as the pair (w, V).

    w is sorted descending, and column k of V pairs with w[k].
    """
    return _checked_eigh(a.entries)


def _clamped_part(w: np.ndarray, negative: bool) -> np.ndarray:
    """The negative (or positive) eigenvalues of a nonempty descending
    spectrum w, with the near-zero band zeroed."""
    # w is sorted descending, so max|w| is max(w[0], -w[-1]).
    clamp = EIGENVALUE_CLAMP_RTOL * max(w[0], -w[-1])
    if negative:
        return np.where(w < -clamp, w, 0.0)
    return np.where(w > clamp, w, 0.0)


def _spectral_part(arr: np.ndarray, negative: bool) -> np.ndarray:
    """Positive or negative spectral part of a raw symmetric array."""
    w, v = _checked_eigh(arr)
    r = (v * _clamped_part(w, negative)) @ v.T
    return (r + r.T) / 2.0


def positive_part(a: SymmetricMatrix) -> SymmetricMatrix:
    """Projection onto the PSD cone: keep only the positive eigenpairs."""
    return SymmetricMatrix(_spectral_part(a.entries, negative=False))


def negative_part(a: SymmetricMatrix) -> SymmetricMatrix:
    """Complement of the positive part: keep only the negative eigenpairs."""
    return SymmetricMatrix(_spectral_part(a.entries, negative=True))


def quad_forms(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x_i^T P x_i for every row x_i of x, by one BLAS product x @ P and a
    row-wise dot.

    BLAS computes x @ P with gemm for several rows and gemv for one, so a row
    on its own can differ from the same row in a batch in the last bits.
    """
    return np.einsum("ij,ij->i", x @ p, x)


def trace_product(a: SymmetricMatrix, b: SymmetricMatrix) -> float:
    """Frobenius inner product sum_ij A_ij * B_ij (= tr(AB) for symmetric A, B)."""
    if a.dim != b.dim:
        raise InvalidInputError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(np.sum(a.entries * b.entries))


def frobenius_norm(a: SymmetricMatrix) -> float:
    return float(np.linalg.norm(a.entries, "fro"))


def min_eigenvalue(a: SymmetricMatrix) -> float:
    """Smallest eigenvalue; A is certified PSD iff the result >= -PSD_CERT_TOL."""
    w, _ = _checked_eigh(a.entries)
    return float(w[-1])
