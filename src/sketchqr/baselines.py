"""Reference orthogonalizers: deterministic Householder QR in compact form,
classical/modified Gram-Schmidt, randomized Gram-Schmidt (one-sketch and
BLAS-2 variants), and randomized Cholesky QR.

householder_qr deliberately shares no reflector arithmetic with the
randomized module, not even the T recursion linalg._extend_t that the RGS
solvers (_BasisQR, _TBasis) use: the equivalence of the two on sketched
inputs is one of the things the test suite checks, so its sign, gamma,
beta, scaling and T stay its own.  It shares only the stop rule on the
pivot norm, linalg.column_norm, as every column step does: kept apart,
the copies of that rule went wrong in the same way.
sketch_qr, which rec_rhqr and rand_cholesky_qr factor their sketch with,
runs LAPACK's xGEQRT where it can; criterion 2 still compares the sweeps
against householder_qr, a route of its own.
"""

from typing import NamedTuple

import numpy as np
import scipy.linalg.lapack

from .linalg import (
    SCALE_SQRT2,
    BreakdownError,
    _extend_t,
    as_array,
    check_scaling,
    check_sketch,
    column_norm,
    compact_q,
    elementwise_in,
    factor_input,
    low_storage,
    matmul_in,
    right_tri_solve,
    sign,
    to_dtype,
    upper_tri_solve,
)
from .precision import DOUBLE_POLICY, PrecisionPolicy, round_to


class QRResult(NamedTuple):
    Q: np.ndarray
    R: np.ndarray
    aux: dict


class SketchQR(NamedTuple):
    """Compact Householder QR of a sketch: Z = (I - S T S^t)[R; 0].
    Reflector c's sigma is -sign(R[c, c]), its rho |R[c, c]|, its beta T[c, c]."""

    S: np.ndarray
    T: np.ndarray
    R: np.ndarray


def householder_qr(A, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Classic left-looking Householder QR of a tall A (p x m, p >= m).

    Sign rule sigma = sign(pivot) with sign(0) = +1, so R's diagonal is
    -sigma*rho.  The reflector product is accumulated compactly; Q is
    materialized as [I;0] - U T U1^t and U, T ride along in aux.  Reflector
    c's sigma is -sign(R[c, c]), its rho |R[c, c]|, its beta T[c, c].  An
    exactly zero tail (column dependent on its predecessors) raises
    BreakdownError, and so do a tail norm that is not finite and, with
    sqrt2 scaling, a tail so tiny that the scale 1/(rho sigma gamma)
    overflows; a merely tiny tail proceeds like any textbook implementation.
    """
    U, T, R = _householder(A, scaling, policy)
    # aux["U"] is a C-contiguous copy, made before Q so the store is freed
    U, T, R = np.ascontiguousarray(U, dtype=np.float64), as_array(T), as_array(R)
    m = T.shape[0]
    return QRResult(Q=compact_q(U, T, U[:m, :m].T), R=R, aux={"U": U, "T": T})


def _householder(A, scaling, policy):
    """householder_qr's sweep: (U, T, R), held in policy.high_dtype."""
    lo = policy.low_dtype
    hi = policy.high_dtype
    Al = factor_input(A, policy, scaling)
    p, m = Al.shape
    # both column-major: U in policy.high's own dtype (half's products over
    # p keep numpy's float16 loop), Ul in policy.low's store for the update
    U = np.zeros((m, p), dtype=hi).T
    Ul = U if lo == hi and lo != np.float16 else low_storage(p, m, lo)
    T, R = np.zeros((2, m, m), dtype=hi)
    for c in range(m):
        w = Al[:, c].copy()
        Uc = U[:, :c]
        if c:
            coef = T[:c, :c].T @ (Uc.T @ to_dtype(w, hi))
            w = w - matmul_in(Ul[:, :c], coef, lo)
        # u is built in float64, where the norm accumulates
        u = np.zeros(p)
        u[c:] = w[c:]
        rho = column_norm(u[c:], c + 1, policy, zero="dependent_column")
        sigma = sign(u[c])
        gamma = float(hi(u[c] + sigma * rho))
        beta = float(hi(1.0 / (rho * sigma * gamma)))
        u[c] = gamma
        if scaling == SCALE_SQRT2:
            if beta == 0.0 or not np.isfinite(beta):
                raise BreakdownError(f"reflector scale degenerated at column {c + 1} "
                                     f"(rho={rho:.3e})", column=c + 1, reason="scale_nonfinite")
            u *= float(hi(np.sqrt(beta)))
            beta = 1.0
        else:
            u /= gamma
            beta = float(hi(sigma * gamma / rho))
        u = round_to(u, policy.low)
        uh = to_dtype(u, hi)
        U[:, c] = uh
        if Ul is not U:
            Ul[:, c] = u
        if c:
            T[:c, c] = hi(-beta) * (T[:c, :c] @ (Uc.T @ uh))
        T[c, c] = beta
        R[:c, c] = w[:c]
        R[c, c] = -sigma * rho
    return U, T, R


_GEQRT = {np.float64: scipy.linalg.lapack.dgeqrt, np.float32: scipy.linalg.lapack.sgeqrt}


def sketch_qr(Z, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Householder QR of a p x m sketch (p >= m), all in policy.high, in
    householder_qr's conventions.

    float64 and float32 run LAPACK's xGEQRT with one block, which returns
    unit lower V and the full T_L of Q = I - V T_L V^t.  Unit scaling is
    S = V with beta = tau.  sqrt2 scaling is S = V D and T = D^-1 T_L D^-1
    with D = diag(sigma sqrt(tau)), so the pivot of S carries sigma as
    householder_qr's u does.  LAPACK leaves a column unreflected (tau = 0)
    where the tail below its pivot is exactly zero, and householder_qr
    reflects there or raises BreakdownError on a zero column, so such a
    sketch, and any sketch in half (no LAPACK kernel), goes to
    householder_qr instead.  LAPACK reads a -0.0 pivot as negative, where
    sign(-0.0) = +1 here: R's diagonal entry there is +rho, not -rho.
    S, T and R are held in policy.high_dtype.
    """
    check_scaling(scaling)
    Z = np.asarray(Z)
    p, m = Z.shape
    if p < m:
        raise ValueError(f"need p >= m, got {p} x {m}")
    hi = policy.high_dtype
    geqrt = _GEQRT.get(hi)
    if geqrt is not None and m:
        a, tl, _ = geqrt(m, to_dtype(Z, hi))
        tau = np.diagonal(tl)
        if np.all(tau != 0):
            R = np.triu(a[:m])
            V = np.tril(a, -1)
            np.fill_diagonal(V, 1)
            T = np.triu(tl)
            if scaling == SCALE_SQRT2:
                d = np.where(np.diagonal(R) > 0, -1.0, 1.0).astype(hi) * np.sqrt(tau)
                S, T = V * d, T / np.outer(d, d)
                # tau / d_c**2 is 1 but for rounding; householder_qr's is 1
                np.fill_diagonal(T, 1)
            else:
                S = V
            return SketchQR(S=S, T=T, R=R)
    # S is a sketch-space array, held C-ordered as LAPACK's route returns it
    S, T, R = _householder(Z, scaling, PrecisionPolicy.uniform(policy.high))
    return SketchQR(S=np.ascontiguousarray(S), T=T, R=R)


def pivoted_householder_qr(A, dtype=np.float64):
    """Right-looking Householder QR with column pivoting, truncating at the
    numerical rank.  It re-factors the whole matrix, so it is the reference
    that _BasisQR's grown solves are tested against; runs in the given
    dtype throughout.  Returns (U, R, perm, rank) with the
    sqrt2-scaled reflector tails stacked in U, held in dtype, and R in
    float64.
    """
    p, m = np.shape(A)
    Aw = to_dtype(A, dtype).copy()
    U = np.zeros((p, m), dtype=dtype)
    perm = np.arange(m)
    rank = min(p, m)
    tol = None
    for c in range(min(p, m)):
        # a contiguous float64 copy: the norm is slower on the strided block
        norms = np.linalg.norm(Aw[c:, c:].astype(np.float64), axis=0)
        piv = c + int(np.argmax(norms))
        if piv != c:
            Aw[:, [c, piv]] = Aw[:, [piv, c]]
            perm[[c, piv]] = perm[[piv, c]]
        rho = float(norms[piv - c])
        if tol is None:
            tol = np.finfo(np.float64).eps * max(p, m) * (rho if rho else 1.0)
        if rho <= tol:
            rank = c
            break
        tail = to_dtype(Aw[c:, c], np.float64)
        sigma = sign(tail[0])
        gamma = tail[0] + sigma * rho
        u = tail.copy()
        u[0] = gamma
        u *= np.sqrt(1.0 / (rho * sigma * gamma))
        u = to_dtype(u, dtype)
        U[c:, c] = u
        if c + 1 < m:
            B = Aw[c:, c + 1:]
            Aw[c:, c + 1:] = B - np.outer(u, u @ B)
        Aw[c, c] = -sigma * rho
        Aw[c + 1:, c] = 0
    return U, np.triu(to_dtype(Aw[:m], np.float64)), perm, rank


def pivoted_qr_lstsq(A, b, dtype=np.float64):
    """min ||A x - b|| via the pivoted QR above; rank-deficient columns get
    zero coefficients (basic solution)."""
    U, R, perm, rank = pivoted_householder_qr(A, dtype=dtype)
    c = np.asarray(b, dtype=dtype).copy()
    m = A.shape[1]
    for k in range(rank):
        u = U[k:, k].copy()
        c[k:] -= u * dtype(u @ c[k:])
    x = np.zeros(m)
    if rank:
        # back substitution in the working dtype
        y = to_dtype(c[:rank], np.float64)
        for k in range(rank - 1, -1, -1):
            y[k] = (y[k] - R[k, k + 1: rank] @ y[k + 1: rank]) / R[k, k]
            y[k] = float(dtype(y[k]))
        x[perm[:rank]] = y
    return x


class _BasisQR:
    """Householder QR of a sketched basis B, grown one column at a time: the
    least-squares solver of rgs and rgs_arnoldi.

    After b_1, ..., b_c are appended, B[:, kept] = H[:, :k] R, where
    H = I - V^t T V is the product of the k sqrt2-scaled reflectors in the
    rows of V.  V, T and R are held in policy.high_dtype, and norms
    accumulate in float64.  Appending b_c costs O(ell c), where a fresh
    factorization of B costs O(ell c^2).  A column whose tail below the
    first k rows is at most pivoted_householder_qr's rank tolerance,
    eps64 * ell * ||b_1||, adds no reflector and gets a zero coefficient,
    as in the pivoted solver's basic solution; so does one whose pivot would
    be subnormal in policy.high, which upper_tri_solve refuses.
    """

    def __init__(self, ell, m, policy):
        hi = policy.high_dtype
        self.policy = policy
        self.V = np.zeros((m, ell), dtype=hi)
        self.T, self.R = np.zeros((2, m, m), dtype=hi)
        self.kept = []
        self.width = 0
        self.tol = None

    def append(self, b):
        """Factor in the next column b (length ell)."""
        hi = self.policy.high_dtype
        k = len(self.kept)
        V = self.V[:k]
        w = to_dtype(b, hi)
        if k:
            # H^t b
            w = w - V.T @ (self.T[:k, :k].T @ (V @ w))
        tail = to_dtype(w[k:], np.float64)
        rho = float(np.linalg.norm(tail))
        if self.tol is None:
            self.tol = np.finfo(np.float64).eps * self.V.shape[1] * rho
        self.width += 1
        if rho <= self.tol or hi(rho) < np.finfo(hi).tiny:
            return
        sigma = sign(tail[0])
        gamma = tail[0] + sigma * rho
        u = np.zeros(self.V.shape[1])
        u[k:] = tail
        u[k] = gamma
        u *= np.sqrt(1.0 / (rho * sigma * gamma))
        self.V[k] = u
        _extend_t(self.T, V @ self.V[k], 1.0, k, hi)
        self.R[:k, k] = w[:k]
        self.R[k, k] = -sigma * rho
        self.kept.append(self.width - 1)

    def lstsq(self, p):
        """min ||B x - p|| over the appended columns, as an array of
        policy.high_dtype: R^-1 of the first k entries of H^t p."""
        hi = self.policy.high_dtype
        k = len(self.kept)
        x = np.zeros(self.width, dtype=hi)
        if k:
            V = self.V[:k]
            p = to_dtype(p, hi)
            y = self.T[:k, :k].T @ (V @ p)
            g = p[:k] - V[:, :k].T @ y
            x[self.kept] = upper_tri_solve(self.R[:k, :k], g, policy=self.policy)
        return x


def cgs(W, policy=DOUBLE_POLICY):
    """Classical Gram-Schmidt, one pass, Euclidean normalization."""
    return _gram_schmidt(W, policy, modified=False)


def mgs(W, policy=DOUBLE_POLICY):
    """Modified Gram-Schmidt, left-looking."""
    return _gram_schmidt(W, policy, modified=True)


def _gram_schmidt(W, policy, modified):
    lo = policy.low_dtype
    Wl = factor_input(W, policy)
    n, m = Wl.shape
    Q = low_storage(n, m, lo)
    # the products summing over n and the modified steps read Q in
    # policy.low itself, which a float16 store is not: it gets a copy
    Qw = Q if Q.dtype == lo else np.zeros((m, n), dtype=lo).T
    R = np.zeros((m, m), dtype=policy.high_dtype)
    for c in range(m):
        w = Wl[:, c].copy()
        if modified:
            for i in range(c):
                rij = float(Qw[:, i] @ w)
                R[i, c] = rij
                w = w - lo(rij) * Qw[:, i]
        elif c:
            r = Qw[:, :c].T @ w
            R[:c, c] = r
            w = w - matmul_in(Q[:, :c], r, lo)
        rjj = column_norm(w, c + 1, policy, zero="zero_pivot")
        R[c, c] = rjj
        q = elementwise_in(np.divide, w, rjj, lo)
        Q[:, c] = q
        if Qw is not Q:
            Qw[:, c] = q
    return QRResult(Q=as_array(Q), R=as_array(R), aux={})


def _rgs_step(w, p, c, Q, R, basis, omega, policy):
    """The randomized Gram-Schmidt column step on w, held in policy.low and
    not written to: the coefficients of p = Omega w in the sketched basis
    (basis.lstsq) become R[:c, c], w is updated against Q[:, :c] (in the
    product's buffer) and sketched again, and its sketched norm h becomes
    R[c, c].  Returns (w, Omega w, h); an h that is not finite raises
    BreakdownError (scale_nonfinite, linalg.column_norm), and what a zero
    or tiny h means, and the normalization, are left to the caller."""
    lo = policy.low_dtype
    z = p
    if c:
        r = basis.lstsq(p)
        R[:c, c] = r
        P = matmul_in(Q[:, :c], r, lo)
        w = np.subtract(w, P, out=P)
        z = omega.apply(w, dtype=lo)
    h = column_norm(z, c + 1, policy)
    R[c, c] = h
    return w, z, h


def _rgs(W, omega, policy, Basis):
    """The RGS sweep, with Basis(ell, m, policy) as the sketched
    least-squares solver: (Q, R, basis).  W is sketched once as a block,
    and each column after the first is re-sketched after its update."""
    lo = policy.low_dtype
    Wl = factor_input(W, policy)
    n, m = Wl.shape
    check_sketch(omega, n, m)
    Q = low_storage(n, m, lo)
    basis = Basis(omega.ell, m, policy)
    R = np.zeros((m, m), dtype=policy.high_dtype)
    # every column's sketch in one block apply, bitwise the per-column ones
    P = omega.apply(Wl, dtype=lo)
    for c in range(m):
        w, z, h = _rgs_step(Wl[:, c].copy(), P[:, c].copy(), c, Q, R, basis, omega, policy)
        # only an exactly zero sketched pivot stops the sweep: past numerical
        # singularity the process is expected to keep going on noise, that is
        # the degradation the benchmarks measure
        if h == 0.0:
            raise BreakdownError(f"sketched pivot annihilated at column {c + 1}",
                                 column=c + 1, reason="zero_pivot")
        Q[:, c] = elementwise_in(np.divide, w, h, lo)
        basis.append(elementwise_in(np.divide, z, h, lo))
    return as_array(Q), as_array(R), basis


def rgs(W, omega, policy=DOUBLE_POLICY):
    """Randomized Gram-Schmidt: project in the sketch space, solving the
    ell x (j-1) sketched least-squares problem with a Householder QR of the
    sketched basis, in policy.high, grown by one column per step (_BasisQR)."""
    Q, R, _ = _rgs(W, omega, policy, _BasisQR)
    return QRResult(Q=Q, R=R, aux={"omega": omega})


class _TBasis:
    """BLAS2-RGS's solver: the normalized sketched basis Sb, held in
    policy.high_dtype, and the unit upper triangle T of the compact form
    I - Sb T Sb^t, grown one column at a time.  The coefficients of p are
    T^t Sb^t p, with no least-squares solve.  T equals the identity in exact
    arithmetic; its drift from I measures the loss the correction repairs.
    """

    def __init__(self, ell, m, policy):
        self.policy = policy
        self.Sb = np.zeros((ell, m), dtype=policy.high_dtype)
        self.T = np.zeros((m, m), dtype=policy.high_dtype)
        self.width = 0

    def append(self, s):
        """Add the next normalized sketched column s."""
        hi = self.policy.high_dtype
        c = self.width
        self.Sb[:, c] = s
        p = self.Sb[:, :c].T @ self.Sb[:, c]
        _extend_t(self.T, p, 1.0, c, hi)
        self.width += 1

    def lstsq(self, p):
        """T^t Sb^t p over the appended columns, in policy.high_dtype."""
        hi = self.policy.high_dtype
        c = self.width
        return self.T[:c, :c].T @ (self.Sb[:, :c].T @ to_dtype(p, hi))


def blas2_rgs(W, omega, policy=DOUBLE_POLICY):
    """Matvec-rich randomized Gram-Schmidt: rgs's sweep, with the projection
    coefficients taken from the compact triangle T (_TBasis) instead of a
    least-squares solve.  aux holds T and omega, from which
    blas2_corrected_sketch forms the sketch of the corrected basis
    [I - T; Q T].
    """
    Q, R, basis = _rgs(W, omega, policy, _TBasis)
    return QRResult(Q=Q, R=R, aux={"T": as_array(basis.T), "omega": omega})


def blas2_corrected_sketch(result):
    """[I - T; (Omega Q) T]: sketched image of the corrected stacked basis."""
    T = result.aux["T"]
    omega = result.aux["omega"]
    m = T.shape[0]
    return np.concatenate([np.eye(m) - T, omega.apply(result.Q) @ T], axis=0)


def rand_cholesky_qr(W, omega, policy=DOUBLE_POLICY):
    """R from a Householder QR of the sketch (sketch_qr, in policy.high),
    Q by a triangular solve."""
    Wl = factor_input(W, policy)
    n, m = Wl.shape
    check_sketch(omega, n, m)
    Z = omega.apply(Wl, dtype=policy.low_dtype)
    R = sketch_qr(Z, policy=policy).R
    Q = right_tri_solve(Wl.astype(policy.high_dtype, order="C"), R, policy=policy)
    return QRResult(Q=as_array(Q), R=as_array(R), aux={"omega": omega})
