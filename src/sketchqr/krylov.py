"""Arnoldi and GMRES on top of the randomized Householder kernels.

Arnoldi is the left-looking factorization of the Krylov matrix
K = [r0, A q_1, A q_2, ...], whose columns are formed one at a time: R[0, 0]
is beta, column j of R is the Hessenberg column of A q_j, and H is R without
its first column.  The RHQR process runs the randomized Householder column
step of rhqr.py on K and extracts explicit columns q_j from the compact
reflector form I - U T (Psi U)^t Psi on the fly.  Because the sketched
basis Psi Q is orthonormal, minimizing the Hessenberg residual minimizes
the sketched residual ||Psi(b - A x)|| over the Krylov space, which is the
whole point of running GMRES this way.

A randomized Gram-Schmidt GMRES with an explicit basis, the RGS
factorization of the same K, is included as the natural point of
comparison.  It runs rgs's column step (baselines._rgs_step), whose
projection coefficients come from a Householder QR of the sketched basis
that grows by one column per step (baselines._BasisQR), so step c costs
O(ell c) in the sketch space.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .baselines import _BasisQR, _rgs_step
from .linalg import (
    SCALE_SQRT2,
    as_array,
    check_finite,
    check_scaling,
    check_sketch,
    column_norm,
    compact_q,
    low_storage,
    matmul_in,
    sign,
    to_dtype,
)
from .precision import DOUBLE_POLICY, DTYPES, round_to
from .rhqr import _add_reflector, apply_reflectors_compact
from .sketching import EmbeddedSketch, _integer


def _column(w, column, low):
    """A Krylov column as the matvec returned it, rounded to `low` only when
    it is held in another format, and refused (BreakdownError,
    nonfinite_input, at `column`) if it holds a NaN or an inf.  Callers
    never write to it."""
    w = check_finite(np.asarray(w), column)
    return w if w.dtype == DTYPES[low] else round_to(w, low)


def _start(matvec, b, x0, low):
    """r0 = b - A x0 in `low`, the Krylov matrix's column 1, which
    BreakdownError (nonfinite_input) names for a NaN or an inf in b or x0,
    found before A is applied."""
    for v in (b, x0):
        check_finite(v)
    return _column(b - matvec(round_to(x0, low)), 1, low)


def _krylov_input(A, b, x0, m):
    """The Arnoldi processes' input gate, passed before A is applied: m an
    integer >= 0, b a vector, x0 (zeros if None) one of b's length, and A,
    unless it is a callable, n x n.  Returns (b, x0, m), b and x0 as float64
    arrays; a fault raises ValueError naming it."""
    m = _integer("m", m)
    if m < 0:
        raise ValueError(f"m={m} must be >= 0")
    b = as_array(b)
    if b.ndim != 1:
        raise ValueError(f"b must be a vector, got {b.ndim} dimensions")
    n = b.shape[0]
    x0 = np.zeros(n) if x0 is None else as_array(x0)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have b's length {n}, got shape {x0.shape}")
    if not callable(A) and np.shape(A) != (n, n):
        raise ValueError(f"A must be {n} x {n} for b of length {n}, got shape {np.shape(A)}")
    return b, x0, m


def _as_operator(A):
    """v -> A v, for v read as float64: a callable A is used as given, a
    scipy sparse A is converted once to CSR (a CSR A is used itself), and
    anything else is read as a float64 array.  CSR adds each row's products
    in the column order CSC's scatter does, so A v keeps CSC's bits in
    about 0.6 of its time."""
    if callable(A):
        return lambda v: A(as_array(v))
    M = A.tocsr() if scipy.sparse.issparse(A) else as_array(A)
    return lambda v: M @ as_array(v)


@dataclass
class KrylovBundle:
    """Arnoldi output: k+1 reflectors in compact form, the (k+1) x k
    Hessenberg, and the signed sketched norm of the starting residual
    (beta, the coordinate of r0 in the computed basis).  breakdown is None
    for a full run, or the attained dimension when the Krylov space closed
    early.
    """

    U: np.ndarray
    S: np.ndarray
    T: np.ndarray
    H: np.ndarray
    psi: EmbeddedSketch
    beta: float
    breakdown: int = None


def arnoldi_q(bundle, cols=None):
    """Materialize basis columns q_1..q_cols from the compact form.

    cols may go up to the number of stored reflectors; cols = k + 1, for H
    of k columns, gives the extended basis Q_{k+1} of the Arnoldi relation.
    """
    r = np.shape(bundle.U)[1]
    c = r if cols is None else cols
    if not 0 <= c <= r:
        raise ValueError(f"have {r} reflectors, cannot build {c} columns")
    return compact_q(bundle.U, bundle.T, as_array(bundle.S)[:c].T)


def _apply_basis(bundle, y, policy):
    """Q_k y for k = len(y), by one pass of the compact form over the
    zero-padded y."""
    k = y.shape[0]
    pad = np.zeros(bundle.U.shape[0])
    pad[:k] = y
    return apply_reflectors_compact(bundle.U[:, :k], bundle.S[:, :k], bundle.T[:k, :k],
                                    pad, bundle.psi, policy=policy)


def rhqr_arnoldi(A, b, x0, m, omega, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Krylov basis of (A, b - A x0) through randomized Householder QR: the
    left-looking column step of rhqr.py on [r0, A q_1, ..., A q_m], whose
    R holds beta in R[0, 0] and H in its other columns.

    omega sketches the trailing n-m-1 coordinates (the identity block of the
    embedding covers the m+1 Hessenberg rows).  A is applied only as a
    matvec.  When the sketched tail of the next direction falls below
    32 * policy.u_high times its full norm the space is declared closed:
    factors are truncated and bundle.breakdown reports the attained
    dimension.  A NaN or an inf in a Krylov column raises BreakdownError
    (nonfinite_input) there, as factor_input would; r0 is column 1.  A
    sketched norm that overflows raises BreakdownError (scale_nonfinite),
    as in rgs_arnoldi.
    """
    check_scaling(scaling)
    lo = policy.low_dtype
    hi = policy.high_dtype
    b, x0, m = _krylov_input(A, b, x0, m)
    matvec = _as_operator(A)
    n = b.shape[0]
    psi = EmbeddedSketch(m + 1, check_sketch(omega, n - m - 1, m + 1))
    # rh_vector already rounds u to policy.low, so storing U there is exact
    U = low_storage(n, m + 1, lo)
    S = np.zeros((psi.ell, m + 1), dtype=hi)
    T, R = np.zeros((2, m + 1, m + 1), dtype=hi)
    attained = None
    w = _start(matvec, b, x0, policy.low)
    for c in range(m + 1):
        # the sketch is read in float64: the norms, and rh_vector's pivot
        z = to_dtype(psi.apply(w, dtype=lo), np.float64)
        tail = column_norm(z[c:], c + 1, policy)
        if tail <= 32.0 * policy.u_high * column_norm(z, c + 1, policy):
            # the new direction is numerically inside the span already: close
            # the space, finishing the current Hessenberg column with the
            # (tiny) subdiagonal the reflector would have produced
            attained = c
            if c:
                R[:c, c] = w[:c]
                R[c, c] = -sign(z[c]) * tail
            break
        _add_reflector(w, z, c, U, S, T, R, scaling, policy)
        if c < m:
            # q_j = Q e_j needs no sketch, since Psi e_j = e_j
            j = c + 1
            coef = T[:j, :j] @ S[c, :j]
            q = matmul_in(U[:, :j], coef, lo)
            np.negative(q, out=q)
            q[c] += 1.0
            w = _column(matvec(q), c + 2, policy.low)
            w = apply_reflectors_compact(U[:, :j], S[:, :j], T[:j, :j], w, psi,
                                         transpose_t=True, policy=policy)
    k = m if attained is None else attained
    r = k + 1 if attained is None else k
    return KrylovBundle(
        U=as_array(U[:, :r]), S=as_array(S)[:, :r],
        T=as_array(T)[:r, :r], H=as_array(R)[:k + 1, 1:k + 1], psi=psi, beta=float(R[0, 0]),
        breakdown=attained,
    )


def hessenberg_lstsq(H, beta):
    """min_y ||beta e_1 - H y|| for upper-Hessenberg H by Givens rotations.

    Returns (y, resid, hist) with hist the running residuals [|beta|, after
    column 1, ..., after column k] and resid its last: the norm of the
    right-hand-side entries no column reduces, the last rotated one and
    those a zero subcolumn leaves when it skips its rotation.  A zero
    rotated pivot zeroes its coordinate and warns (RuntimeWarning).  An H
    that is not (k+1) x k raises ValueError.
    """
    H = as_array(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1] + 1:
        raise ValueError(f"Hessenberg H must be (k+1) x k, got shape {H.shape}")
    p, k = H.shape
    R = H.copy()
    g = np.zeros(p)
    g[0] = float(beta)
    hist = np.zeros(k + 1)
    hist[0] = abs(float(beta))
    lost = 0.0  # the norm of the entries skipped rotations leave
    for j in range(k):
        a = R[j, j]
        t = R[j + 1, j]
        r = float(np.hypot(a, t))
        if r == 0.0:
            cs, sn = 1.0, 0.0
            lost = np.hypot(lost, g[j])
        else:
            cs, sn = a / r, t / r
        row1 = R[j, j:k].copy()
        row2 = R[j + 1, j:k].copy()
        R[j, j:k] = cs * row1 + sn * row2
        R[j + 1, j:k] = -sn * row1 + cs * row2
        g[j], g[j + 1] = cs * g[j] + sn * g[j + 1], -sn * g[j] + cs * g[j + 1]
        hist[j + 1] = np.hypot(lost, g[j + 1])
    y = np.zeros(k)
    for i in range(k - 1, -1, -1):
        if R[i, i] == 0.0:
            warnings.warn("Hessenberg system is rank deficient; dependent "
                          "coordinates were zeroed", RuntimeWarning)
            continue
        y[i] = (g[i] - R[i, i + 1: k] @ y[i + 1:]) / R[i, i]
    return y, float(hist[-1]), hist


def _gmres_solve(H, beta, x0, apply_basis):
    """x0 + Q_k y for the y that minimizes ||beta e_1 - H y||, where
    apply_basis(y) computes Q_k y; returns (x, resid_history) as
    hessenberg_lstsq's history gives it."""
    y, _, hist = hessenberg_lstsq(H, beta)
    if H.shape[1] == 0:
        return x0.copy(), hist
    return x0 + apply_basis(y), hist


def rhqr_gmres(A, b, x0, m, omega, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """GMRES in the sketched norm: Arnoldi via randomized Householder QR,
    Hessenberg least squares, and the correction x - x0 = Q_k y recovered by
    one pass of the compact form over the padded coefficient vector.

    Returns (x, resid_history) with resid_history[j] the sketched residual
    norm after j iterations (resid_history[0] = ||Psi r0||).
    """
    b, x0, m = _krylov_input(A, b, x0, m)
    bundle = rhqr_arnoldi(A, b, x0, m, omega, scaling=scaling, policy=policy)
    return _gmres_solve(bundle.H, bundle.beta, x0,
                        lambda y: _apply_basis(bundle, y, policy))


def rgs_arnoldi(A, b, x0, m, omega, policy=DOUBLE_POLICY):
    """Arnoldi with randomized Gram-Schmidt orthogonalization and an
    explicit basis: rgs's column step (baselines._rgs_step, with the grown
    Householder QR of the sketched basis, _BasisQR) run on the Krylov
    matrix, with the basis and its update in policy.low, and normalization
    by the sketched norm.  The space closes when the sketched norm after
    projection falls below 32 * policy.u_high times the one before.

    omega sketches all n coordinates, ell >= m+1.  Returns
    (Q, H, beta, attained) with Q of k+1 columns and H of shape (k+1) x k.
    """
    lo = policy.low_dtype
    hi = policy.high_dtype
    b, x0, m = _krylov_input(A, b, x0, m)
    matvec = _as_operator(A)
    n = b.shape[0]
    check_sketch(omega, n, m + 1)
    Q = low_storage(n, m + 1, lo)
    basis = _BasisQR(omega.ell, m + 1, policy)
    R = np.zeros((m + 1, m + 1), dtype=hi)
    attained = None
    w = _start(matvec, b, x0, policy.low)
    for c in range(m + 1):
        p = omega.apply(w, dtype=lo)
        w, z, h = _rgs_step(w, p, c, Q, R, basis, omega, policy)
        if h <= 32.0 * policy.u_high * column_norm(p, c + 1, policy):
            attained = c
            break
        Q[:, c] = w / lo(h)
        basis.append(z / lo(h))
        if c < m:
            w = _column(matvec(Q[:, c]), c + 2, policy.low)
    k = m if attained is None else attained
    cols = k + 1 if attained is None else k
    return as_array(Q[:, :cols]), as_array(R)[:k + 1, 1:k + 1], float(R[0, 0]), attained


def rgs_gmres(A, b, x0, m, omega, policy=DOUBLE_POLICY):
    """GMRES on the randomized Gram-Schmidt Arnoldi basis; same Hessenberg
    solve and history convention as rhqr_gmres."""
    b, x0, m = _krylov_input(A, b, x0, m)
    Q, H, beta, _ = rgs_arnoldi(A, b, x0, m, omega, policy=policy)
    return _gmres_solve(H, beta, x0, lambda y: Q[:, :y.shape[0]] @ y)
