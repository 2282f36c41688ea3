"""Reference orthogonalizers: deterministic Householder QR in compact form,
classical/modified Gram-Schmidt, randomized Gram-Schmidt (one-sketch and
BLAS-2 variants), and randomized Cholesky QR.

The Householder code here deliberately does not share reflector internals
with the randomized module: the equivalence of the two on sketched inputs
is one of the things the test suite checks, so the routes stay separate.
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
    as_array,
    check_scaling,
    low_storage,
    matmul_in,
    reflector_matmul,
    right_tri_solve,
    sign,
    to_dtype,
)
from .precision import DOUBLE_POLICY, PrecisionPolicy, round_to


class QRResult(NamedTuple):
    Q: np.ndarray
    R: np.ndarray
    aux: dict


class SketchQR(NamedTuple):
    """Compact Householder QR of a sketch: Z = (I - S T S^t)[R; 0]."""

    S: np.ndarray
    T: np.ndarray
    R: np.ndarray
    sigmas: np.ndarray
    rhos: np.ndarray
    betas: np.ndarray


def householder_qr(A, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Classic left-looking Householder QR of a tall A (p x m, p >= m).

    Sign rule sigma = sign(pivot) with sign(0) = +1, so R's diagonal is
    -sigma*rho.  The reflector product is accumulated compactly; Q is
    materialized as [I;0] - U T U1^t and U, T ride along in aux.  An exactly
    zero tail (column dependent on its predecessors) raises BreakdownError;
    a merely tiny tail proceeds like any textbook implementation.
    """
    check_scaling(scaling)
    lo = policy.low_dtype
    hi = policy.high_dtype
    A = as_array(A)
    p, m = A.shape
    if p < m:
        raise ValueError(f"need p >= m, got {p} x {m}")
    Al = round_to(A, policy.low)
    U = np.zeros((p, m))
    # the update reads U from policy.low storage, with no cast per column
    Ul = U if lo == np.float64 else low_storage(p, m, lo)
    # half sums over n read a float16 copy of U written once per column; a
    # strided float32 copy would not do, as sgemv rounds differently under
    # another leading dimension
    Uh = np.zeros((p, m), dtype=hi) if hi == np.float16 else None
    T = np.zeros((m, m))
    R = np.zeros((m, m))
    sigmas = np.zeros(m)
    rhos = np.zeros(m)
    betas = np.zeros(m)
    for c in range(m):
        w = Al[:, c].astype(np.float64)
        Uc = to_dtype(U[:, :c], hi) if Uh is None else Uh[:, :c]
        if c:
            coef = to_dtype(T[:c, :c].T, hi) @ (Uc.T @ to_dtype(w, hi))
            w = (to_dtype(w, lo) - reflector_matmul(Ul[:, :c], coef, lo)).astype(np.float64)
        rho = float(round_to(np.linalg.norm(w[c:]), policy.high))
        if rho == 0.0:
            raise BreakdownError(f"column {c + 1} exactly dependent on its predecessors",
                                 column=c + 1, reason="dependent_column")
        sigma = sign(w[c])
        gamma = float(hi(w[c] + sigma * rho))
        beta = float(hi(1.0 / (rho * sigma * gamma)))
        u = np.zeros(p)
        u[c:] = w[c:]
        u[c] = gamma
        if scaling == SCALE_SQRT2:
            u *= float(hi(np.sqrt(beta)))
            beta = 1.0
        else:
            u /= gamma
            beta = float(hi(sigma * gamma / rho))
        u = round_to(u, policy.low)
        U[:, c] = u
        if Ul is not U:
            Ul[:, c] = u
        if Uh is not None:
            Uh[:, c] = u
        if c:
            col = to_dtype(T[:c, :c], hi) @ (Uc.T @ to_dtype(u, hi))
            T[:c, c] = (hi(-beta) * col).astype(np.float64)
        T[c, c] = beta
        R[:c, c] = w[:c]
        R[c, c] = -sigma * rho
        sigmas[c], rhos[c], betas[c] = sigma, rho, beta
    Q = -U @ (T @ U[:m, :m].T)
    Q[:m] += np.eye(m)
    return QRResult(Q=Q, R=R, aux={"U": U, "T": T, "sigmas": sigmas, "rhos": rhos, "betas": betas})


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
    """
    check_scaling(scaling)
    Z = as_array(Z)
    p, m = Z.shape
    if p < m:
        raise ValueError(f"need p >= m, got {p} x {m}")
    hi = policy.high_dtype
    geqrt = _GEQRT.get(hi)
    if geqrt is not None and m:
        a, tl, _ = geqrt(m, Z.astype(hi))
        tau = np.diagonal(tl)
        if np.all(tau != 0):
            R = np.triu(a[:m])
            r = np.diagonal(R)
            sigmas = np.where(r > 0, -1.0, 1.0)
            V = np.tril(a, -1)
            np.fill_diagonal(V, 1)
            T = np.triu(tl)
            if scaling == SCALE_SQRT2:
                d = sigmas.astype(hi) * np.sqrt(tau)
                S, T, betas = V * d, T / np.outer(d, d), np.ones(m)
                # tau / d_c**2 is 1 but for rounding; householder_qr's is 1
                np.fill_diagonal(T, 1)
            else:
                S, betas = V, tau
            return SketchQR(S=S.astype(np.float64), T=T.astype(np.float64),
                            R=R.astype(np.float64), sigmas=sigmas,
                            rhos=np.abs(r).astype(np.float64), betas=betas.astype(np.float64))
    hq = householder_qr(Z, scaling=scaling, policy=PrecisionPolicy.uniform(policy.high))
    return SketchQR(S=hq.aux["U"], T=hq.aux["T"], R=hq.R, sigmas=hq.aux["sigmas"],
                    rhos=hq.aux["rhos"], betas=hq.aux["betas"])


def pivoted_householder_qr(A, dtype=np.float64):
    """Right-looking Householder QR with column pivoting, truncating at the
    numerical rank.  Used for the sketched least-squares subproblems; runs
    in the given dtype throughout.  Returns (U, R, perm, rank) with the
    sqrt2-scaled reflector tails stacked in U.
    """
    A = as_array(A)
    p, m = A.shape
    Aw = A.astype(dtype).copy()
    U = np.zeros((p, m), dtype=dtype)
    perm = np.arange(m)
    rank = min(p, m)
    tol = None
    for c in range(min(p, m)):
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
        tail = Aw[c:, c].astype(np.float64)
        sigma = sign(tail[0])
        gamma = tail[0] + sigma * rho
        u = tail.copy()
        u[0] = gamma
        u *= np.sqrt(1.0 / (rho * sigma * gamma))
        u = u.astype(dtype)
        U[c:, c] = u
        if c + 1 < m:
            B = Aw[c:, c + 1:]
            Aw[c:, c + 1:] = B - np.outer(u, u @ B)
        Aw[c, c] = -sigma * rho
        Aw[c + 1:, c] = 0
    R = np.triu(Aw[:m].astype(np.float64))
    return U.astype(np.float64), R, perm, rank


def pivoted_qr_lstsq(A, b, dtype=np.float64):
    """min ||A x - b|| via the pivoted QR above; rank-deficient columns get
    zero coefficients (basic solution)."""
    U, R, perm, rank = pivoted_householder_qr(A, dtype=dtype)
    c = np.asarray(b, dtype=dtype).copy()
    m = A.shape[1]
    for k in range(rank):
        u = U[k:, k].astype(dtype)
        c[k:] -= u * dtype(u @ c[k:])
    x = np.zeros(m)
    if rank:
        # back substitution in the working dtype
        y = c[:rank].astype(np.float64)
        for k in range(rank - 1, -1, -1):
            y[k] = (y[k] - R[k, k + 1: rank] @ y[k + 1: rank]) / R[k, k]
            y[k] = float(dtype(y[k]))
        x[perm[:rank]] = y
    return x


def cgs(W, policy=DOUBLE_POLICY):
    """Classical Gram-Schmidt, one pass, Euclidean normalization."""
    return _gram_schmidt(W, policy, modified=False)


def mgs(W, policy=DOUBLE_POLICY):
    """Modified Gram-Schmidt, left-looking."""
    return _gram_schmidt(W, policy, modified=True)


def _gram_schmidt(W, policy, modified):
    lo = policy.low_dtype
    Wa = as_array(W)
    n, m = Wa.shape
    Wl = to_dtype(round_to(Wa, policy.low), lo)
    Q = low_storage(n, m, lo)
    # the products summing over n and the modified steps read Q in
    # policy.low itself, which a float16 store is not: it gets a copy
    Qw = Q if Q.dtype == lo else np.zeros((n, m), dtype=lo)
    R = np.zeros((m, m))
    for c in range(m):
        w = Wl[:, c].copy()
        if modified:
            for i in range(c):
                rij = float(Qw[:, i] @ w)
                R[i, c] = rij
                w = w - lo(rij) * Qw[:, i]
        elif c:
            r = Qw[:, :c].T @ w
            R[:c, c] = r.astype(np.float64)
            w = w - matmul_in(Q[:, :c], r, lo)
        rjj = float(round_to(np.linalg.norm(w.astype(np.float64)), policy.high))
        if rjj == 0.0:
            raise BreakdownError(f"zero pivot norm at column {c + 1}", column=c + 1,
                                 reason="zero_pivot")
        R[c, c] = rjj
        q = w / lo(rjj)
        Q[:, c] = q
        if Qw is not Q:
            Qw[:, c] = q
    return QRResult(Q=np.ascontiguousarray(Q, dtype=np.float64), R=R, aux={})


def rgs(W, omega, policy=DOUBLE_POLICY):
    """Randomized Gram-Schmidt: project in the sketch space.  W is sketched
    once as a block, and each column after the first is re-sketched after
    its update.

    The ell x (j-1) sketched least-squares problem is solved with our own
    column-pivoted Householder QR in the high precision of the policy;
    normalization uses the sketched norm.
    """
    lo = policy.low_dtype
    Wa = as_array(W)
    n, m = Wa.shape
    if omega.n != n:
        raise ValueError(f"sketch takes {omega.n} coordinates, expected {n}")
    if omega.ell < m:
        raise ValueError("sampling size below column count")
    Wl = to_dtype(round_to(Wa, policy.low), lo)
    Q = low_storage(n, m, lo)
    Sb = np.zeros((omega.ell, m))  # maintained sketched basis
    R = np.zeros((m, m))
    # every column's sketch in one block apply, bitwise the per-column ones
    P = omega.apply(Wl, dtype=lo)
    for c in range(m):
        w = Wl[:, c].copy()
        z = p = P[:, c].copy()
        if c:
            r = pivoted_qr_lstsq(Sb[:, :c], p, dtype=policy.high_dtype)
            R[:c, c] = r
            w = w - matmul_in(Q[:, :c], r, lo)
            z = omega.apply(w.astype(np.float64), dtype=lo)
        rjj = float(round_to(np.linalg.norm(z), policy.high))
        # only an exactly zero sketched pivot stops the sweep: past numerical
        # singularity the process is expected to keep going on noise, that is
        # the degradation the benchmarks measure
        if rjj == 0.0:
            raise BreakdownError(f"sketched pivot annihilated at column {c + 1}",
                                 column=c + 1, reason="zero_pivot")
        R[c, c] = rjj
        Q[:, c] = w / lo(rjj)
        Sb[:, c] = (to_dtype(z, lo) / lo(rjj)).astype(np.float64)
    return QRResult(Q=np.ascontiguousarray(Q, dtype=np.float64), R=R, aux={"omega": omega})


def blas2_rgs(W, omega, policy=DOUBLE_POLICY):
    """Matvec-rich randomized Gram-Schmidt: the projection coefficients come
    from the compact triangle T instead of a least-squares solve.

    T carries unit diagonal and, in exact arithmetic, equals the identity;
    its drift from I measures the loss the correction repairs.  aux holds T
    and omega, from which blas2_corrected_sketch forms the sketch of the
    corrected basis [I - T; Q T].
    """
    lo = policy.low_dtype
    Wa = as_array(W)
    n, m = Wa.shape
    if omega.n != n:
        raise ValueError(f"sketch takes {omega.n} coordinates, expected {n}")
    if omega.ell < m:
        raise ValueError("sampling size below column count")
    Wl = to_dtype(round_to(Wa, policy.low), lo)
    Q = low_storage(n, m, lo)
    Sb = np.zeros((omega.ell, m))
    T = np.zeros((m, m))
    R = np.zeros((m, m))
    hi = policy.high_dtype
    # every column's sketch in one block apply, bitwise the per-column ones
    P = omega.apply(Wl, dtype=lo)
    for c in range(m):
        w = Wl[:, c].copy()
        z = p = P[:, c].copy()
        if c:
            rhead = to_dtype(T[:c, :c].T, hi) @ (to_dtype(Sb[:, :c], hi).T @ to_dtype(p, hi))
            rhead = rhead.astype(np.float64)
            R[:c, c] = rhead
            w = w - matmul_in(Q[:, :c], rhead, lo)
            z = omega.apply(w.astype(np.float64), dtype=lo)
        rho = float(round_to(np.linalg.norm(z), policy.high))
        if rho == 0.0:
            raise BreakdownError(f"sketched pivot annihilated at column {c + 1}",
                                 column=c + 1, reason="zero_pivot")
        R[c, c] = rho
        Q[:, c] = w / lo(rho)
        Sb[:, c] = (to_dtype(z, lo) / lo(rho)).astype(np.float64)
        if c:
            col = to_dtype(T[:c, :c], hi) @ (to_dtype(Sb[:, :c], hi).T @ to_dtype(Sb[:, c], hi))
            T[:c, c] = -col.astype(np.float64)
        T[c, c] = 1.0
    return QRResult(Q=np.ascontiguousarray(Q, dtype=np.float64), R=R,
                    aux={"T": T, "omega": omega})


def blas2_corrected_sketch(result):
    """[I - T; (Omega Q) T]: sketched image of the corrected stacked basis."""
    T = result.aux["T"]
    omega = result.aux["omega"]
    m = T.shape[0]
    return np.concatenate([np.eye(m) - T, omega.apply(result.Q) @ T], axis=0)


def rand_cholesky_qr(W, omega, policy=DOUBLE_POLICY):
    """R from a Householder QR of the sketch (sketch_qr, in policy.high),
    Q by a triangular solve."""
    Wa = as_array(W)
    n, m = Wa.shape
    if omega.n != n:
        raise ValueError(f"sketch takes {omega.n} coordinates, expected {n}")
    Wl = round_to(Wa, policy.low)
    Z = omega.apply(Wl, dtype=policy.low_dtype)
    R = sketch_qr(Z, policy=policy).R
    Q = right_tri_solve(Wl, R, policy=policy)
    return QRResult(Q=Q, R=R, aux={"omega": omega})
