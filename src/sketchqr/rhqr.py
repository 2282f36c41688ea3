"""Randomized Householder QR.

A reflector here is built from a single sketch of the working column: with
y = Psi w the vector u keeps w's tail plus a sigma*rho bump on the pivot,
and s is the same surgery applied to y, so s = Psi u without a second
sketch.  Products of reflectors accumulate in compact form
I - U T (Psi U)^t Psi with S = Psi U stored explicitly.

Two scalings are supported everywhere:
  "sqrt2": u and s multiplied by sqrt(beta) so beta == 1 and ||s|| = sqrt(2)
  "unit":  u and s divided by the pivot value gamma so diag(U) == 1

Precision policy: n-dimensional storage and updates run in policy.low,
sketched coefficients, rho/beta and the T algebra in policy.high, and each
array is held in the dtype of its format.  The factorizations return
float64 factors.
"""

from dataclasses import dataclass

import numpy as np

from .baselines import sketch_qr
from .linalg import (
    SCALE_SQRT2,
    BreakdownError,
    ReflectorStep,
    _compact_update,
    _extend_t,
    as_array,
    check_finite,
    check_prefix,
    check_scaling,
    check_sketch,
    column_norm,
    compact_q,
    factor_input,
    low_storage,
    matmul_in,
    right_tri_solve,
    sign,
    to_dtype,
    upper_tri_solve,
)
from .precision import DOUBLE_POLICY, round_to
from .sketching import EmbeddedSketch, _integer


def rh_vector(w, y, j, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Build the reflector that eliminates entries j+1.. of y = Psi w.

    j is 1-based and must lie inside the identity block of the embedding, so
    y[j-1] == w[j-1] exactly.  sign(0) = +1; rho and beta are computed in
    policy.high, u is returned in policy.low_dtype and s in
    policy.high_dtype.  Raises BreakdownError only when the sketched tail
    is exactly annihilated (rho == 0), or rho (linalg.column_norm) or the
    reflector scale is not finite: a tail sitting at the rounding
    noise floor still defines a perfectly unitary reflector, and the process
    is expected to keep going through numerically singular columns (that
    unconditional behavior is the whole point of the method).
    """
    check_scaling(scaling)
    w = np.asarray(w)
    # the pivot work and the norm run in float64; rho lives in the high format
    y = to_dtype(y, np.float64)
    jj = j - 1
    if not 0 <= jj < y.shape[0]:
        raise ValueError(f"elimination index {j} outside sketch of length {y.shape[0]}")
    hi = policy.high_dtype
    rho = column_norm(y[jj:], j, policy, zero="tail_annihilated")
    sigma = sign(y[jj])
    gamma = float(hi(y[jj] + sigma * rho))
    beta = float(hi(1.0 / (rho * sigma * gamma)))  # == 2/||s||^2, positive for either sigma
    # in sqrt2 scaling a beta that rounds to 0 would make u = 0 and the
    # reflector the identity
    if not np.isfinite(beta) or (beta == 0.0 and scaling == SCALE_SQRT2):
        raise BreakdownError(f"reflector scale degenerated at column {j} (rho={rho:.3e})",
                             column=j, reason="scale_nonfinite")
    u = np.zeros(w.shape[0])
    u[jj:] = w[jj:]
    u[jj] += sigma * rho
    s = np.zeros(y.shape[0])
    s[jj:] = y[jj:]
    s[jj] = gamma
    if scaling == SCALE_SQRT2:
        f = float(hi(np.sqrt(beta)))
        u *= f
        s *= f
        beta = 1.0
    else:
        u /= gamma
        s /= gamma
        beta = float(hi(sigma * gamma / rho))  # |gamma|/rho
    u = round_to(u, policy.low)
    s = round_to(s, policy.high)
    return ReflectorStep(u, s, sigma, rho, beta)


def apply_reflectors_compact(U, S, T, X, psi, transpose_t=False, policy=DOUBLE_POLICY):
    """(I - U T S^t Psi) X for a vector or a block X, or the reversed
    product with transpose_t=True, returned in policy.low_dtype.

    The sketch in front of the compact-form kernel (linalg._compact_update),
    for callers that do not hold the coefficients S^t Psi X: X is sketched
    in policy.low and the coefficient products run in policy.high.  U may
    be a block of linalg.low_storage.  X is rounded to policy.low for the
    update; the sketch keeps its leading rows as given (EmbeddedSketch).
    """
    hi = policy.high_dtype
    C = to_dtype(S, hi).T @ to_dtype(psi.apply(X, dtype=policy.low_dtype), hi)
    return _compact_update(U, T, X, C, transpose_t, policy)[0]


def _add_reflector(w, y, c, U, S, T, R, scaling, policy, first=0, y_next=None):
    """The column step of the left- and right-looking sweeps and of
    rhqr_arnoldi: the reflector that eliminates entries c+1.. of y = Psi w
    becomes column c of the compact form (U, S, T), and w's head with the
    new diagonal -sigma*rho becomes column c of R.  T grows by _extend_t
    within its diagonal block from reflector `first` on, the rest of
    column c (T[:first, c]) being left to the caller: p = S[:, first:c]^t s.

    Given y_next, the sketch (or sketch-space image) of the column factored
    next, one product S[:, first:c+1]^t [s, y_next] reads S once for p and
    for that column's coefficients S[:, first:c+1]^t y_next.  _sweep passes
    a zero y_next at a panel's last column, so every p comes from the same
    kernel and a run on fewer columns keeps a longer run's bits.  Returns
    those coefficients (None without y_next)."""
    step = rh_vector(w, y, c + 1, scaling, policy)
    U[:, c] = step.u
    S[:, c] = step.s
    hi = policy.high_dtype
    if y_next is None:
        p, coef = S[:, first:c].T @ step.s, None
    else:
        B = np.stack((step.s, y_next), dtype=hi)
        G = S[:, first:c + 1].T @ B.T
        p, coef = G[:c - first, 0], G[:, 1]
    _extend_t(T[first:, first:], p, step.beta, c - first, hi)
    R[:c, c] = w[:c]
    R[c, c] = -step.sigma * step.rho
    return coef


@dataclass
class RHQRFactors:
    """Compact factorization output: W = Q R with Q = [I;0] - U T U1^t.
    Reflector c's sigma is -sign(R[c, c]), its rho |R[c, c]|, its beta T[c, c]."""

    U: np.ndarray          # n x m reflector columns, lower trapezoidal
    S: np.ndarray          # (ell+m) x m sketched reflectors, S = Psi U
    T: np.ndarray          # m x m upper triangular
    R: np.ndarray          # m x m upper triangular
    psi: EmbeddedSketch

    def prefix(self, j):
        """Factors of the leading j columns: the sweeps' first j reflectors
        never look at later columns, and rec_rhqr's lift is triangular.  j
        must be an integer in 0..m."""
        j = check_prefix(j, self.R.shape[1])
        return RHQRFactors(U=self.U[:, :j], S=self.S[:, :j], T=self.T[:j, :j],
                           R=self.R[:j, :j], psi=self.psi)


def thin_q(factors):
    """Materialize Q = [I;0] - U T U1^t in float64 (metrics run on this)."""
    U = as_array(factors.U)
    k = U.shape[1]
    return compact_q(U, factors.T, U[:k, :k].T)


def sketch_q(factors):
    """Materialize Psi Q = [I;0] - S T U1^t without touching n-dim data."""
    U = as_array(factors.U)
    k = U.shape[1]
    return compact_q(factors.S, factors.T, U[:k, :k].T)


def lsq_via_implicit_q(factors, b, policy=DOUBLE_POLICY):
    """argmin_x of the sketched residual ||Psi(W x - b)|| via the compact form.

    b, a vector or a block of n rows, is checked before any arithmetic: a
    NaN or an inf raises BreakdownError (nonfinite_input) at its column."""
    b = as_array(b)
    n = factors.U.shape[0]
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"b must have n={n} rows, got shape {b.shape}")
    c = apply_reflectors_compact(
        factors.U, factors.S, factors.T, check_finite(b), factors.psi,
        transpose_t=True, policy=policy,
    )
    m = factors.R.shape[1]
    return as_array(upper_tri_solve(factors.R, c[:m], policy=policy))


def _sweep(W, omega, block_size, scaling, policy):
    """Left-looking sweep over panels of block_size columns (None: one panel).

    All reflectors so far form one compact form U, S = Psi U, T, with U
    stored in policy.low (linalg.low_storage).  Each panel is sketched
    once, as a block, in its original columns.  A panel after the first is
    brought up to date by every earlier reflector in one compact-form
    update, whose coefficients Z = T^t S^t Yp also give the sketch-space
    image Yp - S Z of the updated panel.  Column c of the panel starting
    at j0 then gets the panel's own reflectors j0..c-1.  Their
    coefficients S[:, j0:c]^t y, y its column of that sketch (or image),
    come from column c-1's step, which forms them with T's new column in
    one product over a column-major S (_add_reflector's y_next).  Every
    column but column 0 is sketched once more after its update: 2m-1
    sketched columns for any block size.  During a panel T grows only in
    its diagonal block T[j0:c+1, j0:c+1]; after it, T[:j0, j0:j1] =
    -T[:j0, :j0] (S[:, :j0]^t S[:, j0:j1]) T[j0:j1, j0:j1] by GEMMs (the UT
    transform, _extend_t's block form).  Returns the fields of
    RHQRFactors.
    """
    lo = policy.low_dtype
    hi = policy.high_dtype
    Wl = factor_input(W, policy, scaling)
    n, m = Wl.shape
    psi = EmbeddedSketch(m, check_sketch(omega, n - m, m))
    if block_size is None:
        block_size = max(m, 1)
    U = low_storage(n, m, lo)
    # not low_storage: half keeps numpy's float16 loop over S, and its bits
    S = np.zeros((m, psi.ell), dtype=hi).T
    T, R = np.zeros((2, m, m), dtype=hi)
    zero = np.zeros(psi.ell, dtype=hi)
    for j0 in range(0, m, block_size):
        j1 = min(j0 + block_size, m)
        panel = Wl[:, j0:j1]
        # a block apply equals per-column applies bit for bit (but for a
        # Gaussian)
        Yp = psi.apply(panel, dtype=lo)
        if j0:
            panel, Z = _compact_update(U[:, :j0], T[:j0, :j0], panel,
                                       S[:, :j0].T @ to_dtype(Yp, hi), True, policy)
            Yp = to_dtype(Yp, hi) - matmul_in(S[:, :j0], Z, hi)
        for c in range(j0, j1):
            # w is only read; column 0's y is copied out contiguous, as a
            # single apply returns it
            w = panel[:, c - j0]
            if c > j0:
                w = _compact_update(U[:, j0:c], T[j0:c, j0:c], w, coef, True, policy)[0]
            y = psi.apply(w, dtype=lo) if c else Yp[:, 0].copy()
            y_next = Yp[:, c + 1 - j0] if c + 1 < j1 else zero
            coef = _add_reflector(w, y, c, U, S, T, R, scaling, policy, first=j0,
                                  y_next=y_next)
        if j0:
            _extend_t(T, S[:, :j0].T @ S[:, j0:j1], T[j0:j1, j0:j1], j0, hi)
    return dict(U=as_array(U), S=as_array(S), T=as_array(T), R=as_array(R), psi=psi)


def rhqr_left(W, omega, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Left-looking randomized Householder QR of a tall W (n x m, n > m).

    omega sketches the trailing n-m coordinates.  W is sketched once as a
    block, and every column after the first once more after its update.
    This is the blocked sweep with a single panel.
    """
    return RHQRFactors(**_sweep(W, omega, None, scaling, policy))


def rhqr_right(W, omega, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Right-looking variant: the left sweeps' column step (_add_reflector,
    so T grows as it does there), then a rank-1 update of the trailing
    block through the compact-form kernel (_compact_update).  W is sketched
    once; its trailing block's image Y in sketch space (Psi(W - u z^t) =
    Y - s z^t) feeds only the coefficients z = beta s^t Y, and each
    reflector is built from a fresh sketch of its updated column: 2m-1
    sketched columns, as in rhqr_left."""
    lo, hi = policy.low_dtype, policy.high_dtype
    X = factor_input(W, policy, scaling)
    n, m = X.shape
    psi = EmbeddedSketch(m, check_sketch(omega, n - m, m))
    U = low_storage(n, m, lo)
    S = np.zeros((psi.ell, m), dtype=hi)
    T, R = np.zeros((2, m, m), dtype=hi)
    Y = to_dtype(psi.apply(X, dtype=lo), hi)
    for c in range(m):
        # X holds the updated columns c.., Y[:, c:] their image
        y = psi.apply(X[:, 0], dtype=lo) if c else Y[:, 0].copy()
        _add_reflector(X[:, 0], y, c, U, S, T, R, scaling, policy)
        X, z = _compact_update(U[:, c:c + 1], T[c:c + 1, c:c + 1], X[:, 1:],
                               S[:, c:c + 1].T @ Y[:, c + 1:], False, policy)
        Y[:, c + 1:] -= matmul_in(S[:, c:c + 1], z, hi)
    return RHQRFactors(U=as_array(U), S=as_array(S), T=as_array(T), R=as_array(R), psi=psi)


class BlockRHQRFactors(RHQRFactors):
    """Output of rhqr_block: the same single compact form as rhqr_left's."""

    def stacked(self):
        """The factors as one compact form, which they already are."""
        return self


def rhqr_block(W, omega, block_size=32, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Blocked left-looking sweep (_sweep): each panel of block_size
    columns is sketched once as a block, brought up to date by every
    earlier reflector in one compact-form update, and factored column by
    column; the block of T above its diagonal block is then formed by
    GEMMs.  It sketches 2m-1 columns, as rhqr_left does.  A final panel
    narrower than block_size is processed as-is; a block_size (a positive
    integer) of m or more is rhqr_left exactly."""
    block_size = _integer("block_size", block_size)
    if block_size < 1:
        raise ValueError(f"block_size={block_size} must be >= 1")
    return BlockRHQRFactors(**_sweep(W, omega, block_size, scaling, policy))


def rec_rhqr(W, omega, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Reconstructed RHQR: one sketch of all of W, a deterministic
    Householder QR of the sketch, and a triangular solve that lifts the
    reflectors back to n dimensions.

    The small QR (baselines.sketch_qr: LAPACK's xGEQRT in double and
    single, householder_qr in half) runs entirely in policy.high; only the
    single sketch and the reconstructed U touch low precision.  Where
    LAPACK factors, a pivot that is exactly -0.0 counts as negative, so
    R's diagonal there is +rho where the sweeps give -rho.
    """
    Wl = factor_input(W, policy, scaling)
    n, m = Wl.shape
    psi = EmbeddedSketch(m, check_sketch(omega, n - m, m))
    Z = psi.apply(Wl, dtype=policy.low_dtype)
    hq = sketch_qr(Z, scaling=scaling, policy=policy)
    S = hq.S
    T = hq.T
    hi = policy.high_dtype
    Mfac = np.triu(T.T @ (S.T @ to_dtype(Z, hi)))
    d = np.abs(np.diagonal(Mfac))
    if np.any(d < np.finfo(np.float64).tiny):
        k = int(np.argmin(d))
        raise BreakdownError(f"reconstruction factor has zero diagonal at column {k + 1}",
                             column=k + 1, reason="reconstruction_singular")
    # U is held in S's high format, the wider one; the lift is solved in
    # place in U's tail
    U = np.concatenate([S[:m], Wl[m:]], axis=0, dtype=hi)
    right_tri_solve(U[m:], Mfac, policy=policy)
    if policy.low != policy.high:
        U[m:] = round_to(U[m:], policy.low)
    return RHQRFactors(U=as_array(U), S=as_array(S), T=as_array(T), R=as_array(hq.R), psi=psi)
