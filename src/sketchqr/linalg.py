"""Shared conventions, triangular solves, and the error metrics.

Metrics (condition numbers, orthogonality, factorization residuals) are
always evaluated in float64 regardless of the precision an experiment ran
in, so precision sweeps measure the stored factors rather than remeasuring
through the low format.
"""

import operator
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .precision import DOUBLE_POLICY, PrecisionRangeError, round_to


BREAKDOWN_REASONS = ("tail_annihilated", "scale_nonfinite", "reflector_cancelled", "zero_pivot",
                     "dependent_column", "reconstruction_singular", "nonfinite_input")


class BreakdownError(RuntimeError):
    """A factorization step cannot continue (annihilated pivot or sketch).

    `column` is the 1-based column at which the step failed, and `reason`
    one of BREAKDOWN_REASONS:
      tail_annihilated         the (sketched) tail below the pivot is exactly 0
      scale_nonfinite          a norm or reflector scale came out inf or NaN
      reflector_cancelled      the sketched trimmed reflector cancelled
      zero_pivot               a Gram-Schmidt or unit-scaling pivot is exactly 0
      dependent_column         a deterministic column lies in the earlier span
      reconstruction_singular  rec_rhqr's lifting triangle has a zero diagonal
      nonfinite_input          an input column (of W, or of the Krylov matrix
                               an Arnoldi process forms) holds a NaN or an inf
    """

    def __init__(self, message, column, reason):
        if reason not in BREAKDOWN_REASONS:
            raise ValueError(f"unknown breakdown reason {reason!r}")
        super().__init__(message)
        self.column = column
        self.reason = reason


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
    """Any array-like as a float64 ndarray in the layout it was made in (M
    itself if it is one)."""
    return np.asarray(M, dtype=np.float64)


def compact_q(V, T, H):
    """[I; 0] - V T H, the explicit k columns of a compact form, in
    float64: H is U1^t for the sweeps, S's head for Arnoldi and
    triu(S^t E) for trim."""
    Q = as_array(V) @ -(as_array(T) @ as_array(H))
    k = Q.shape[1]
    Q[:k] += np.eye(k)
    return Q


def check_finite(X, first=1):
    """X, unless a column holds a NaN or an inf: then BreakdownError
    (nonfinite_input) at the first such column, numbering X's columns from
    `first`.  A vector is one column."""
    ok = np.atleast_1d(np.isfinite(X).all(axis=0))
    if not ok.all():
        c = first + int(np.argmin(ok))
        raise BreakdownError(f"non-finite input in column {c}", column=c,
                             reason="nonfinite_input")
    return X


def column_norm(v, column, policy, zero=None):
    """The pivot norm of every column step: ||v||, accumulated in float64
    and rounded to policy.high.  A norm not finite there raises
    BreakdownError (scale_nonfinite) at the 1-based `column`; given a reason
    `zero`, so does an exactly zero norm, with that reason."""
    try:
        nrm = float(round_to(np.linalg.norm(to_dtype(v, np.float64)), policy.high))
    except PrecisionRangeError:  # past policy.high's range
        nrm = np.inf
    if not np.isfinite(nrm):
        raise BreakdownError(f"norm is not finite in {policy.high} at column {column}",
                             column=column, reason="scale_nonfinite")
    if nrm == 0.0 and zero is not None:
        raise BreakdownError(f"zero norm at column {column} ({zero})", column=column,
                             reason=zero)
    return nrm


def check_prefix(j, m):
    """j as an int, if it is an integer in 0..m: the width of a prefix of
    factors with m columns.  Anything else raises ValueError naming j and m."""
    try:
        k = operator.index(j)
    except TypeError:
        k = -1
    if not 0 <= k <= m:
        raise ValueError(f"prefix width j={j!r} must be an integer in 0..m={m}")
    return k


def check_matrix(W):
    """W as an array, which must be a matrix with n >= m."""
    W = np.asarray(W)
    if W.ndim != 2:
        raise ValueError(f"W must be a matrix, got {W.ndim} dimensions")
    if W.shape[0] < W.shape[1]:
        raise ValueError(f"W must have n >= m, got {W.shape[0]} x {W.shape[1]}")
    return W


def factor_input(W, policy, scaling=None):
    """The input gate of every factorization: the scaling (if it takes one)
    must be known, W a matrix with n >= m, and finite.  Returns W rounded to policy.low:
    W itself, read-only, where it is C-contiguous in that format, else a
    copy; a finite value that overflows it raises PrecisionRangeError."""
    if scaling is not None:
        check_scaling(scaling)
    W = check_matrix(W)
    check_finite(W)
    if W.dtype != policy.low_dtype or not W.flags.c_contiguous:
        return round_to(W, policy.low)
    W = W.view()
    W.flags.writeable = False
    return W


def check_sketch(omega, n, min_ell=0):
    """Refuse a sketch that does not take n coordinates or has fewer than
    min_ell rows; returns omega."""
    if omega.n != n:
        raise ValueError(f"sketch takes {omega.n} coordinates, expected {n}")
    if omega.ell < min_ell:
        raise ValueError(f"sampling size ell={omega.ell} is below {min_ell} columns")
    return omega


def upper_tri_solve(R, B, policy=DOUBLE_POLICY):
    """Solve R X = B for upper-triangular R by back substitution.

    Runs in the high precision of the policy (float64 by default) and
    returns X in that dtype.  A zero or subnormal diagonal raises
    SingularFactorError before any arithmetic.
    """
    return _tri_solve(np.asarray(R), np.asarray(B), False, policy.high_dtype)


def right_tri_solve(B, R, policy=DOUBLE_POLICY):
    """Solve X R = B for upper-triangular R (columnwise forward substitution)
    in place: B, a writable C-contiguous array of policy.high_dtype, is
    overwritten by X and returned.  Otherwise as upper_tri_solve."""
    if B.dtype != policy.high_dtype or not (B.flags.c_contiguous and B.flags.writeable):
        raise ValueError("right_tri_solve needs a writable C-contiguous B in policy.high")
    _tri_solve(np.asarray(R).T, B.T, True, policy.high_dtype, in_place=True)
    return B


def _tri_solve(A, B, lower, dtype, in_place=False):
    bad = np.nonzero(np.abs(np.diagonal(A)) < np.finfo(dtype).tiny)[0]
    if bad.size:
        raise SingularFactorError(
            f"triangular factor has zero or subnormal diagonal at index {bad[0]}")
    A = to_dtype(A, dtype)
    if dtype != np.float16:
        # B of an in-place solve is a gated input: only A is scanned
        return scipy.linalg.solve_triangular(
            np.asarray_chkfinite(A), B if in_place else to_dtype(B, dtype), lower=lower,
            overwrite_b=in_place, check_finite=not in_place)
    # LAPACK has no float16 kernels; substitute one row of the solution at a
    # time with vectorized half-precision arithmetic
    X = to_dtype(np.atleast_2d(B.T).T, dtype)
    X = X if in_place else X.copy()
    n = A.shape[0]
    for k in range(n) if lower else range(n - 1, -1, -1):
        done = slice(0, k) if lower else slice(k + 1, n)
        X[k] = (X[k] - A[k, done] @ X[done]) / A[k, k]
    return X.reshape(B.shape)


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
    D = as_array(Q) @ as_array(R)
    np.subtract(W, D, out=D)
    col_w = np.linalg.norm(W, axis=0)
    fro, worst = _relative_errors(col_w, np.linalg.norm(D, axis=0))
    return FactorizationErrors(fro_rel_err=fro, max_col_rel_err=worst,
                               flagged_columns=tuple(np.nonzero(col_w == 0.0)[0].tolist()))


def _relative_errors(col_w, col_d):
    """(Frobenius, largest column) relative error of a residual D of W, from
    the column norms of W and of D.  A zero column of W is measured against
    ||W||_F, and a zero W leaves both unscaled."""
    wf, df = np.linalg.norm(col_w), np.linalg.norm(col_d)
    rel = col_d / np.where(col_w == 0.0, wf or 1.0, col_w)
    return float(df / wf) if wf else float(df), float(rel.max()) if rel.size else 0.0


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


class ReflectorStep(NamedTuple):
    """A column step's reflector: u (rh_vector: n long; trim_rh_vector: the
    tail from the pivot on), s, the sketch of u, and the update's scalars."""
    u: np.ndarray
    s: np.ndarray
    sigma: float
    rho: float
    beta: float


def _extend_t(T, p, beta, c, hi=np.float64):
    """Grow the compact-form triangle T, held in hi, past its leading block
    T[:c, :c].  One new reflector, given beta and p = S[:, :c]^t s_new in
    hi, becomes column c: T[:c, c] = -beta T[:c, :c] p and T[c, c] = beta.
    A block of b reflectors c.., whose own triangle beta = T[c:c+b, c:c+b]
    is in place, gets the block above it from the c x b block
    p = S[:, :c]^t S[:, c:c+b] by GEMMs: T[:c, c:c+b] = -T[:c, :c] p beta
    (the UT transform of Joffrain et al., ACM TOMS 2006)."""
    if np.ndim(beta):
        T[:c, c:c + beta.shape[0]] = -matmul_in(
            matmul_in(T[:c, :c], p, hi), beta, hi)
        return
    if c:
        T[:c, c] = hi(-beta) * (T[:c, :c] @ p)
    T[c, c] = beta


def _compact_update(U, T, X, C, transpose_t, policy):
    """The compact-form step's arithmetic on a block X given its
    coefficient product C = S^t Psi X in policy.high: returns X - U T C in
    policy.low and the coefficients T C (T^t C with transpose_t) in
    policy.high.  apply_reflectors_compact (which forms C) and every
    randomized sweep's update run through it."""
    lo = policy.low_dtype
    C = matmul_in(T.T if transpose_t else T, C, policy.high_dtype)
    P = matmul_in(U, C, lo)  # X - P lands in P's buffer: one n-row temporary
    return np.subtract(to_dtype(X, lo), P, out=P), C


def low_storage(n, m, dtype):
    """Zeroed n x m storage for columns kept in `dtype`: the transpose of a
    C-contiguous m x n array, so each column is contiguous and products
    read the store with leading dimension n, as BLAS holds a matrix.  A
    float16 store is held in float32, where half values fit exactly; the
    block U[:, a:b] is then a view whose transpose is the contiguous rows
    _half_matmul walks, one per k, with no copy.
    """
    held = np.float32 if dtype == np.float16 else dtype
    return np.zeros((m, n), dtype=held).T


def _half_matmul(A, B):
    """numpy's float16 A @ B, bit for bit, at float32 speed.

    numpy has no half BLAS kernel.  Its matmul loop converts both operands
    to float32, where the product of two halves is exact (11 + 11
    significand bits fit in 24, so an FMA changes no bit), adds the
    products in order over k from +0, and rounds the sum to half once.  One
    einsum over the rows of A^t does the same: with the kept axis n
    contiguous, k is its outer loop.  A one-row A is padded to two rows,
    since einsum would reduce a lone output over k in its SIMD loop, out of
    order.  A float32 A must already hold half values (low_storage's layout,
    where A^t is contiguous and nothing is copied); any other A is rounded
    to half first.  Where two NaNs meet, which one's sign survives is up to
    the loop (numpy's own scalar and vector loops differ), so a NaN may come
    out with the other sign; every other bit is numpy's.
    """
    if A.dtype != np.float32:
        A = to_dtype(A, np.float16)
    AT = np.ascontiguousarray(A.T, dtype=np.float32)
    B32 = to_dtype(B, np.float16).astype(np.float32)
    n = AT.shape[1]
    if n == 1:
        AT = np.concatenate((AT, AT), axis=1)
    return np.einsum("kn,k...->n...", AT, B32)[:n].astype(np.float16)


def matmul_in(A, B, dtype):
    """A @ B in the arithmetic of dtype, returned as dtype.

    Both operands are rounded to dtype first, and copied only then.
    float64 and float32 go to BLAS as stored, strided views included: BLAS
    packs its operands itself.  float16 goes through _half_matmul, one
    float32 einsum with numpy's float16 bits, which needs O(n) bytes beyond A.
    """
    if dtype == np.float16:
        return _half_matmul(A, B)
    return to_dtype(A, dtype) @ to_dtype(B, dtype)


def elementwise_in(op, a, b, dtype, out=None):
    """op(a, b), a binary ufunc (np.multiply or np.divide), in the
    arithmetic of dtype, returned as dtype (written to `out`, which may be
    an operand, if given).  a has the result's shape.

    Both operands are rounded to dtype first.  float16 runs as one float32
    op on a float32 copy of a, rounded to half once.  That is what numpy's
    float16 loop computes, with float32's vector loop in place of its
    scalar one: halves widen to float32 exactly, and a float32 product or
    quotient of two halves rounded to half is the correctly rounded half
    result, since 24 >= 2 * 11 + 2 significand bits (Figueroa, SIGNUM
    Newsletter 30(3), 1995).  As in _half_matmul, a float32 operand must
    already hold half values (the SRHT's float32 copy of its half scales),
    and a NaN made from two NaNs may come out with the other sign; every
    other bit is numpy's.  An `out` of float16 or float32 takes the
    rounded result.
    """
    if dtype != np.float16:
        return op(to_dtype(a, dtype), to_dtype(b, dtype), out=out)
    r = _halves(a).astype(np.float32)
    op(r, _halves(b), out=r)
    if out is None:
        return r.astype(np.float16)
    out[...] = r if out.dtype == np.float16 else r.astype(np.float16)
    return out


def _halves(x):
    """x's half values: x itself if it is float16 or float32 (taken to hold
    halves), else x rounded to half."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else to_dtype(x, np.float16)
