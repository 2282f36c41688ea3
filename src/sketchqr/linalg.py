"""Shared conventions, triangular solves, and the error metrics.

Metrics (condition numbers, orthogonality, factorization residuals) are
always evaluated in float64 regardless of the precision an experiment ran
in, so precision sweeps measure the stored factors rather than remeasuring
through the low format.
"""

from typing import NamedTuple

import numpy as np
import scipy.linalg

from .precision import DOUBLE_POLICY


class BreakdownError(RuntimeError):
    """A factorization step cannot continue (annihilated pivot or sketch).

    `column` is the 1-based column at which the step failed.
    """

    def __init__(self, message, column):
        super().__init__(message)
        self.column = column


# reflector scaling conventions shared by the deterministic and randomized
# factorizations: "sqrt2" normalizes so the sketched reflector has norm
# sqrt(2) and beta == 1; "unit" divides by the pivot so diag(U) == 1
SCALE_SQRT2 = "sqrt2"
SCALE_UNIT = "unit"
SCALINGS = (SCALE_SQRT2, SCALE_UNIT)


def check_scaling(scaling):
    if scaling not in SCALINGS:
        raise ValueError(f"unknown scaling {scaling!r}, expected one of {SCALINGS}")


class SingularFactorError(np.linalg.LinAlgError):
    """Triangular solve hit a zero or subnormal diagonal entry."""


def as_array(M):
    """Accept any array-like, return a float64 ndarray."""
    return np.asarray(M, dtype=np.float64)


def _check_diagonal(R, dtype):
    d = np.abs(np.diagonal(R))
    tiny = np.finfo(dtype).tiny
    bad = np.nonzero(d < tiny)[0]
    if bad.size:
        raise SingularFactorError(
            f"triangular factor has zero or subnormal diagonal at index {bad[0]}"
        )


def upper_tri_solve(R, B, policy=DOUBLE_POLICY):
    """Solve R X = B for upper-triangular R by back substitution.

    Runs in the high precision of the policy (float64 by default).  A zero or
    subnormal diagonal raises SingularFactorError before any arithmetic.
    """
    dtype = policy.high_dtype
    R = as_array(R)
    B = as_array(B)
    _check_diagonal(R, dtype)
    if dtype == np.float16:
        return _tri_solve_loop(R, B, dtype, lower=False)
    X = scipy.linalg.solve_triangular(R.astype(dtype), B.astype(dtype), lower=False)
    return X.astype(np.float64)


def right_tri_solve(B, R, policy=DOUBLE_POLICY):
    """Solve X R = B for upper-triangular R (columnwise forward substitution)."""
    dtype = policy.high_dtype
    R = as_array(R)
    B = as_array(B)
    _check_diagonal(R, dtype)
    if dtype == np.float16:
        return _tri_solve_loop(R.T, B.T, dtype, lower=True).T
    X = scipy.linalg.solve_triangular(R.astype(dtype).T, B.astype(dtype).T, lower=True).T
    return X.astype(np.float64)


def _tri_solve_loop(A, B, dtype, lower):
    # LAPACK has no float16 kernels; substitute one column of the solution at
    # a time with vectorized half-precision arithmetic.
    A = A.astype(dtype)
    X = np.atleast_2d(B.T).T.astype(dtype).copy()
    n = A.shape[0]
    order = range(n) if lower else range(n - 1, -1, -1)
    for k in order:
        if lower:
            if k:
                X[k] = X[k] - A[k, :k] @ X[:k]
        else:
            if k < n - 1:
                X[k] = X[k] - A[k, k + 1:] @ X[k + 1:]
        X[k] = X[k] / A[k, k]
    out = X.astype(np.float64)
    return out.reshape(np.shape(B)) if np.ndim(B) == 1 else out


def cond_number(M):
    """2-norm condition number via float64 SVD; +inf if the smallest
    singular value underflows to zero."""
    A = as_array(M)
    if not np.all(np.isfinite(A)):
        return np.inf
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] == 0.0:
        return np.inf
    return float(sv[0] / sv[-1])


class FactorizationErrors(NamedTuple):
    fro_rel_err: float
    max_col_rel_err: float
    flagged_columns: tuple


def factorization_errors(W, Q, R):
    """Relative residuals of W ~ Q R, in Frobenius norm and per column.

    Columns of W with exactly zero norm are measured against ||W||_F instead
    and reported in flagged_columns.
    """
    W = as_array(W)
    Q = as_array(Q)
    R = as_array(R)
    D = W - Q @ R
    wf = np.linalg.norm(W)
    fro = float(np.linalg.norm(D) / wf) if wf else float(np.linalg.norm(D))
    col_w = np.linalg.norm(W, axis=0)
    col_d = np.linalg.norm(D, axis=0)
    zero = col_w == 0.0
    denom = np.where(zero, wf if wf else 1.0, col_w)
    rel = col_d / denom
    return FactorizationErrors(
        fro_rel_err=fro,
        max_col_rel_err=float(rel.max()) if rel.size else 0.0,
        flagged_columns=tuple(np.nonzero(zero)[0].tolist()),
    )


def orthogonality_error(Q):
    """|| Q^t Q - I ||_F in float64."""
    Q = as_array(Q)
    G = Q.T @ Q
    return float(np.linalg.norm(G - np.eye(G.shape[0])))


def sign(v):
    """Sign convention used by every reflector here: sign(0) = +1."""
    return 1.0 if v >= 0.0 else -1.0


def to_dtype(a, dtype):
    a = np.asarray(a)
    return a if a.dtype == dtype else a.astype(dtype)
