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
    _extend_t,
    _operand,
    as_array,
    check_scaling,
    check_sketch,
    factor_input,
    low_storage,
    matmul_in,
    reflector_matmul,
    right_tri_solve,
    sign,
    to_dtype,
    upper_tri_solve,
)
from .precision import DOUBLE_POLICY, round_to
from .sketching import EmbeddedSketch


@dataclass
class HouseholderStep:
    """One reflector: vectors u and s = Psi u and the scalars the update
    needs."""

    u: np.ndarray
    s: np.ndarray
    sigma: float
    rho: float
    beta: float


def rh_vector(w, y, j, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Build the reflector that eliminates entries j+1.. of y = Psi w.

    j is 1-based and must lie inside the identity block of the embedding, so
    y[j-1] == w[j-1] exactly.  sign(0) = +1; rho and beta are computed in
    policy.high, u is returned in policy.low_dtype and s in
    policy.high_dtype.  Raises BreakdownError only when
    the sketched tail is exactly annihilated (rho == 0) or the reflector
    scale degenerates to a non-finite number: a tail sitting at the rounding
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
    rho = float(round_to(np.linalg.norm(y[jj:]), policy.high))
    if rho == 0.0:
        raise BreakdownError(f"sketched tail annihilated at column {j}", column=j,
                             reason="tail_annihilated")
    sigma = sign(y[jj])
    gamma = float(hi(y[jj] + sigma * rho))
    beta = float(hi(1.0 / (rho * sigma * gamma)))  # == 2/||s||^2, positive for either sigma
    if not np.isfinite(beta):
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
    return HouseholderStep(u=u, s=s, sigma=sigma, rho=rho, beta=beta)


def apply_reflectors_compact(U, S, T, X, psi, transpose_t=False, policy=DOUBLE_POLICY,
                             Y=None):
    """(I - U T S^t Psi) X, or the reversed product with transpose_t=True,
    returned in policy.low_dtype.

    The compact-form step every sweep repeats: the sketch and the
    n-dimensional update run in policy.low, the coefficient products in
    policy.high.  U may be a block of linalg.low_storage.  X is rounded to
    policy.low for the update; the sketch keeps its leading rows as given
    (EmbeddedSketch).  Y is Psi X, shaped as X, when the caller has
    sketched X already.
    """
    lo = policy.low_dtype
    hi = policy.high_dtype
    X = np.asarray(X)
    vec = X.ndim == 1
    Xc = X[:, None] if vec else X
    if Y is None:
        Y = psi.apply(Xc, dtype=lo)
    elif vec:
        Y = Y[:, None]
    C = _operand(S, hi).T @ _operand(Y, hi)
    C = matmul_in(_operand(T.T if transpose_t else T, hi), C, hi)
    out = to_dtype(Xc, lo) - reflector_matmul(U, C, lo)
    return out[:, 0] if vec else out


def t_factor_from_sketches(S, policy=DOUBLE_POLICY):
    """Recover the triangular T of the compact form from S = Psi U alone.

    S^t S = T^{-1} + T^{-t}, so T^{-1} is the strict upper triangle of S^t S
    plus half its diagonal.  T comes back in policy.high_dtype.
    """
    Sh = _operand(S, policy.high_dtype)
    G = Sh.T @ Sh
    Tinv = np.triu(G, 1) + np.diag(np.diagonal(G) / 2.0)
    return upper_tri_solve(Tinv, np.eye(G.shape[0]), policy=policy)


def _add_reflector(w, y, c, U, S, T, R, scaling, policy):
    """The left-looking column step: the reflector that eliminates entries
    c+1.. of y = Psi w becomes column c of the compact form (U, S, T), and
    w's head with the new diagonal -sigma*rho becomes column c of R.
    Returns the HouseholderStep."""
    step = rh_vector(w, y, c + 1, scaling, policy)
    U[:, c] = step.u
    S[:, c] = step.s
    hi = policy.high_dtype
    _extend_t(T, _operand(S[:, :c], hi).T @ step.s, step.beta, c, hi)
    R[:c, c] = w[:c]
    R[c, c] = -step.sigma * step.rho
    return step


@dataclass
class RHQRFactors:
    """Compact factorization output: W = Q R with Q = [I;0] - U T U1^t."""

    U: np.ndarray          # n x m reflector columns, lower trapezoidal
    S: np.ndarray          # (ell+M) x m sketched reflectors, S = Psi U
    T: np.ndarray          # m x m upper triangular
    R: np.ndarray          # m x m upper triangular
    psi: EmbeddedSketch
    scaling: str
    sigmas: np.ndarray
    rhos: np.ndarray
    betas: np.ndarray

    def prefix(self, j):
        """Factors of the leading j columns (valid for the left/right sweeps,
        whose first j reflectors never look at later columns)."""
        return RHQRFactors(
            U=self.U[:, :j], S=self.S[:, :j], T=self.T[:j, :j], R=self.R[:j, :j],
            psi=self.psi, scaling=self.scaling,
            sigmas=self.sigmas[:j], rhos=self.rhos[:j], betas=self.betas[:j],
        )


def thin_q(factors):
    """Materialize Q = [I;0] - U T U1^t in float64 (metrics run on this)."""
    U = as_array(factors.U)
    k = U.shape[1]
    U1 = U[:k, :k]
    Q = U @ -(as_array(factors.T) @ U1.T)
    Q[:k] += np.eye(k)
    return Q


def sketch_q(factors):
    """Materialize Psi Q = [I;0] - S T U1^t without touching n-dim data."""
    S = as_array(factors.S)
    U = as_array(factors.U)
    k = U.shape[1]
    Q = S @ -(as_array(factors.T) @ U[:k, :k].T)
    Q[:k] += np.eye(k)
    return Q


def lsq_via_implicit_q(factors, b, policy=DOUBLE_POLICY):
    """argmin_x of the sketched residual ||Psi(W x - b)|| via the compact form."""
    c = apply_reflectors_compact(
        factors.U, factors.S, factors.T, as_array(b), factors.psi,
        transpose_t=True, policy=policy,
    )
    m = factors.R.shape[1]
    return as_array(upper_tri_solve(factors.R, c[:m], policy=policy))


def _sweep(W, omega, block_size, scaling, policy):
    """Left-looking sweep over panels of block_size columns (None: one panel).

    All reflectors so far form one compact form U, S = Psi U, T, with U
    stored in policy.low (linalg.low_storage).  A panel after the first is
    brought up to date by one application of every earlier reflector.
    Each panel is then sketched once, as a block.  Column c of the panel
    starting at j0 gets the panel's own reflectors j0..c-1, whose triangle
    is the diagonal block T[j0:c, j0:c] of the global T, from its column of
    that sketch; only the updated column is sketched again.  Returns the
    fields of RHQRFactors.
    """
    lo = policy.low_dtype
    hi = policy.high_dtype
    Wl = factor_input(W, policy, scaling)
    n, m = Wl.shape
    psi = EmbeddedSketch(m, check_sketch(omega, n - m, m))
    if block_size is None:
        block_size = max(m, 1)
    U = low_storage(n, m, lo)
    S = np.zeros((psi.out_dim, m), dtype=hi)
    T, R = np.zeros((2, m, m), dtype=hi)
    sigmas, rhos, betas = np.zeros((3, m))
    for j0 in range(0, m, block_size):
        j1 = min(j0 + block_size, m)
        panel = Wl[:, j0:j1]
        if j0:
            panel = apply_reflectors_compact(U[:, :j0], S[:, :j0], T[:j0, :j0], panel, psi,
                                             transpose_t=True, policy=policy)
        # a block apply equals per-column applies bit for bit (but for a
        # Gaussian); y is copied out contiguous, as a single apply returns
        # it, and w is only read
        Yp = psi.apply(panel, dtype=lo)
        for c in range(j0, j1):
            w = panel[:, c - j0]
            y = Yp[:, c - j0].copy()
            if c > j0:
                w = apply_reflectors_compact(U[:, j0:c], S[:, j0:c], T[j0:c, j0:c], w, psi,
                                             transpose_t=True, policy=policy, Y=y)
                y = psi.apply(w, dtype=lo)
            step = _add_reflector(w, y, c, U, S, T, R, scaling, policy)
            sigmas[c], rhos[c], betas[c] = step.sigma, step.rho, step.beta
    return dict(U=np.ascontiguousarray(U, dtype=np.float64), S=as_array(S), T=as_array(T),
                R=as_array(R), psi=psi, scaling=scaling, sigmas=sigmas, rhos=rhos, betas=betas)


def rhqr_left(W, omega, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Left-looking randomized Householder QR of a tall W (n x m, n > m).

    omega sketches the trailing n-m coordinates.  W is sketched once as a
    block, and every column after the first once more after its update.
    This is the blocked sweep with a single panel.
    """
    return RHQRFactors(**_sweep(W, omega, None, scaling, policy))


def rhqr_right(W, omega, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Right-looking variant: rank-1 update of the trailing block, which is
    re-sketched wholesale at every step; T is recovered from S afterwards."""
    lo = policy.low_dtype
    hi = policy.high_dtype
    Wl = np.require(factor_input(W, policy, scaling), requirements="W")
    n, m = Wl.shape
    psi = EmbeddedSketch(m, check_sketch(omega, n - m, m))
    U = np.zeros((n, m), dtype=lo)
    S = np.zeros((psi.out_dim, m), dtype=hi)
    R = np.zeros((m, m), dtype=hi)
    sigmas, rhos, betas = np.zeros((3, m))
    for c in range(m):
        # the trailing block's sketch, read in float64 as rh_vector reads y
        Y = to_dtype(psi.apply(Wl[:, c:], dtype=lo), np.float64)
        step = rh_vector(Wl[:, c], Y[:, 0], c + 1, scaling, policy)
        U[:, c] = step.u
        S[:, c] = step.s
        R[:c, c] = Wl[:c, c]
        R[c, c] = -step.sigma * step.rho
        sigmas[c], rhos[c], betas[c] = step.sigma, step.rho, step.beta
        if c + 1 < m:
            coef = hi(step.beta) * (step.s @ _operand(Y[:, 1:], hi))
            Wl[:, c + 1:] -= np.outer(step.u, to_dtype(coef, lo))
    T = t_factor_from_sketches(S, policy=policy)
    return RHQRFactors(U=as_array(U), S=as_array(S), T=as_array(T), R=as_array(R), psi=psi,
                       scaling=scaling, sigmas=sigmas, rhos=rhos, betas=betas)


class BlockRHQRFactors(RHQRFactors):
    """Output of rhqr_block: the same single compact form as rhqr_left's."""

    def stacked(self):
        """The factors as one compact form, which they already are."""
        return self


def rhqr_block(W, omega, block_size=32, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Blocked left-looking sweep: each panel of block_size columns is
    brought up to date by every earlier reflector in one compact-form
    application, sketched once as a block, and then factored column by
    column.  A final panel narrower than block_size is processed as-is;
    block_size >= m is rhqr_left exactly."""
    if block_size < 1:
        raise ValueError("block_size must be positive")
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
    Mfac = np.triu(_operand(T.T, hi) @ (_operand(S, hi).T @ _operand(Z, hi)))
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
    return RHQRFactors(U=as_array(U), S=as_array(S), T=as_array(T), R=as_array(hq.R), psi=psi,
                       scaling=scaling, sigmas=hq.sigmas, rhos=hq.rhos, betas=hq.betas)
