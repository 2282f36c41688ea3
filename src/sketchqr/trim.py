"""Trimmed randomized Householder QR.

The reflector for column j sketches only coordinates j..n of its input:
H(u, Omega, j) = I - beta u (Omega u)^t [0 Omega_{j:n}].  Dropping the
identity block of the embedding lets the sampling size ell be smaller than
the column count m, at the price of a basis whose sketch is no longer
orthogonal.  The construction needs Omega's first m columns to sketch to
unit vectors; normalize_leading_columns wraps any operator so this holds
and the factorizations apply it automatically.

Compact forms use two triangles.  Products in creation order carry the
same T recursion as the plain randomized reflectors; reversed products
carry a twin T~.  Applying either form needs ut((Omega U)^t Omega), which
is computed from S^t (Omega x) minus a correction through the strictly
lower table L[i, k] = <Omega u_i, Omega e_k>, so canonical vectors are
sketched once up front and never again.
"""

from dataclasses import dataclass

import numpy as np

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
    reflector_matmul,
    sign,
    to_dtype,
    upper_tri_solve,
)
from .precision import DOUBLE_POLICY, round_to
from .rhqr import t_factor_from_sketches
from .sketching import ColumnScaledSketch


@dataclass
class TrimStep:
    """One trimmed reflector at 1-based column j: tail vector v of length
    n-j+1, its sketch s = Omega [0; v], and the update scalars."""

    v: np.ndarray
    s: np.ndarray
    sigma: float
    rho: float
    beta: float


# unit vectors sketched per block by normalize_leading_columns
_CHUNK = 256


def normalize_leading_columns(omega, m):
    """Wrap omega so its first m columns sketch to exactly unit norm.

    The wrapper rescales input coordinates 1..m before sketching and caches
    the m unit column sketches (needed as the E table of the trimmed
    factorizations).  An operator already wrapped for at least m columns is
    returned unchanged.  Raises ValueError if a leading column sketches to
    zero.
    """
    if isinstance(omega, ColumnScaledSketch) and omega.m >= m:
        return omega
    n = omega.n
    if m > n:
        raise ValueError(f"cannot normalize {m} leading columns of {n} inputs")
    cols = np.empty((omega.ell, m))
    for k0 in range(0, m, _CHUNK):
        k1 = min(k0 + _CHUNK, m)
        eye_blk = np.zeros((n, k1 - k0))
        eye_blk[np.arange(k0, k1), np.arange(k1 - k0)] = 1.0
        cols[:, k0:k1] = omega.apply(eye_blk)
    norms = np.linalg.norm(cols, axis=0)
    if np.any(norms == 0.0):
        dead = int(np.argmin(norms)) + 1
        raise ValueError(f"leading column {dead} sketches to zero")
    scales = np.ones(n)
    scales[:m] = 1.0 / norms
    return ColumnScaledSketch(omega, scales, m, cols / norms)


def trim_rh_vector(w_tail, omega, j, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Reflector data for the trimmed elimination at 1-based column j.

    w_tail holds coordinates j..n of the working column; both sketches pad
    it with j-1 zeros, which equals applying Omega's trailing columns.
    sigma is the sign of w_tail's first entry: the sketch does not preserve
    entries here, so the pivot itself decides.  Raises BreakdownError when
    the sketched tail is exactly annihilated (rho == 0) or when the sketched
    reflector vector cancels, which the sign choice cannot rule out once the
    pivot's sketched column may anti-align with the tail; noise-floor tails
    proceed, matching the main algorithm's convention.  sqrt2 scaling also
    stops when the scale 2/||Omega v||^2 overflows (scale_nonfinite), unit
    scaling on an exactly zero sketched pivot, or when dividing by it leaves
    a non-finite value.  v comes back in policy.low_dtype and s in
    policy.high_dtype.
    """
    check_scaling(scaling)
    lo = policy.low_dtype
    hi = policy.high_dtype
    w_tail = np.asarray(w_tail)
    n = omega.n
    jj = j - 1
    if not 0 <= jj < n:
        raise ValueError(f"elimination index {j} outside {n} coordinates")
    if w_tail.shape[0] != n - jj:
        raise ValueError(f"tail has {w_tail.shape[0]} entries, expected {n - jj}")
    x = np.zeros(n, dtype=np.result_type(w_tail.dtype, lo))
    x[jj:] = w_tail
    # the sketches, v and the norms are worked in float64
    z = to_dtype(omega.apply(x, dtype=lo), np.float64)
    rho = float(round_to(np.linalg.norm(z), policy.high))
    if rho == 0.0:
        raise BreakdownError(f"sketched tail annihilated at column {j}", column=j,
                             reason="tail_annihilated")
    sigma = sign(w_tail[0])
    v = to_dtype(w_tail, np.float64).copy()
    v[0] += sigma * rho
    v[:] = round_to(v, policy.low)
    x[jj:] = v
    vs = to_dtype(omega.apply(x, dtype=lo), np.float64)
    nv = float(round_to(np.linalg.norm(vs), policy.high))
    if nv <= 8.0 * policy.u_high * (float(np.linalg.norm(z)) + rho):
        raise BreakdownError(
            f"sketched reflector vector cancelled at column {j} "
            f"(degenerate sketch geometry, norm {nv:.3e})",
            column=j, reason="reflector_cancelled",
        )
    beta = float(hi(2.0 / (nv * nv)))
    if scaling == SCALE_SQRT2:
        if not np.isfinite(beta):
            raise BreakdownError(f"reflector scale degenerated at column {j} (norm {nv:.3e})",
                                 column=j, reason="scale_nonfinite")
        f = float(hi(np.sqrt(beta)))
        v = v * f
        vs = vs * f
        beta = 1.0
    else:
        # as in rh_vector, only an exactly zero pivot or a scale that leaves
        # a non-finite value stops the sweep; a small pivot is legitimate
        piv = float(vs[0])
        if piv == 0.0:
            raise BreakdownError(f"unit scaling pivot vanished at column {j}", column=j,
                                 reason="zero_pivot")
        v = v / piv
        vs = vs / piv
        beta = float(hi(beta * piv * piv))
        if not (np.isfinite(beta) and np.isfinite(v).all() and np.isfinite(vs).all()):
            raise BreakdownError(
                f"unit scaling degenerated at column {j} (sketched entry {piv:.3e})",
                column=j, reason="scale_nonfinite",
            )
    v = round_to(v, policy.low)
    vs = round_to(vs, policy.high)
    return TrimStep(v=v, s=vs, sigma=sigma, rho=rho, beta=beta)


@dataclass
class TrimFactors:
    """Output of the trimmed factorizations: W = (I - U T ut((Omega U)^t Omega)) [R; 0].

    S = Omega U with one sketch per reflector.  T composes reflectors in
    creation order, T_tilde in reverse; both are upper triangular.  L is the
    strictly lower table <Omega u_i, Omega e_k> and E holds the unit leading
    column sketches of the wrapped operator, so the ut(...) application
    never re-sketches canonical vectors.
    """

    U: np.ndarray
    S: np.ndarray
    T: np.ndarray
    T_tilde: np.ndarray
    R: np.ndarray
    L: np.ndarray
    E: np.ndarray
    omega: ColumnScaledSketch
    scaling: str
    sigmas: np.ndarray
    rhos: np.ndarray
    betas: np.ndarray

    def prefix(self, j):
        """Factors of the leading j columns; valid because every table grows
        by one row/column per reflector."""
        return TrimFactors(
            U=self.U[:, :j], S=self.S[:, :j], T=self.T[:j, :j],
            T_tilde=self.T_tilde[:j, :j], R=self.R[:j, :j], L=self.L[:j, :j],
            E=self.E[:, :j], omega=self.omega, scaling=self.scaling,
            sigmas=self.sigmas[:j], rhos=self.rhos[:j], betas=self.betas[:j],
        )


def t_tilde_from_factors(S, E, U, policy=DOUBLE_POLICY):
    """Reversed-product triangle without running the per-step recursion.

    A = T^{-1} - ut((Omega U)^t Omega) U is lower triangular with diagonal
    -||s_i||^2 / 2, and T~^t = -A^{-1}.  Leading blocks of a triangular
    inverse are inverses of leading blocks, so prefixes of the result agree
    with the recursion.
    """
    hi = policy.high_dtype
    m = np.shape(S)[1]
    Sh = _operand(S, hi)
    G = Sh.T @ Sh
    L = np.tril(Sh.T @ _operand(np.asarray(E)[:, :m], hi), -1)
    A = L @ _operand(np.asarray(U)[:m], hi) - np.tril(G, -1) - np.diag(np.diagonal(G) / 2.0)
    return -upper_tri_solve(A.T, np.eye(m), policy=policy)


def trim_thin_q(factors):
    """Materialize Q with W = Q R in float64 (metrics run on this).

    The creation-order compact form applied to [I_m; 0] needs only
    ut((Omega U)^t Omega) [I; 0] = triu(S^t E).
    """
    U = as_array(factors.U)
    k = U.shape[1]
    M = np.triu(as_array(factors.S).T @ as_array(factors.E)[:, :k])
    Q = U @ -(as_array(factors.T) @ M)
    Q[:k] += np.eye(k)
    return Q


def trim_rhqr_right(W, omega, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Right-looking trimmed factorization.

    Each reflector updates the trailing columns through the masked sketch:
    rows 1..j-1 are dropped before sketching, matching the [0 Omega_{j:n}]
    operator of the elimination.  T, T_tilde and L are assembled from S and
    E after the sweep.
    """
    lo = policy.low_dtype
    hi = policy.high_dtype
    Wl = np.require(factor_input(W, policy, scaling), requirements="W")
    n, m = Wl.shape
    omega = normalize_leading_columns(check_sketch(omega, n), m)
    U = np.zeros((n, m), dtype=lo)
    S = np.zeros((omega.ell, m), dtype=hi)
    R = np.zeros((m, m), dtype=hi)
    sigmas, rhos, betas = np.zeros((3, m))
    for c in range(m):
        w = Wl[:, c]
        step = trim_rh_vector(w[c:], omega, c + 1, scaling=scaling, policy=policy)
        U[c:, c] = step.v
        S[:, c] = step.s
        R[:c, c] = w[:c]
        R[c, c] = -step.sigma * step.rho
        sigmas[c], rhos[c], betas[c] = step.sigma, step.rho, step.beta
        if c + 1 < m:
            Y = Wl[:, c + 1:]
            masked = Y.copy()
            masked[:c] = 0.0
            X = omega.apply(masked, dtype=lo)
            coef = hi(step.beta) * (step.s @ _operand(X, hi))
            Y -= np.outer(U[:, c], to_dtype(coef, lo))
    E = omega.unit_column_sketches[:, :m].copy()
    T = t_factor_from_sketches(S, policy=policy)
    T_tilde = t_tilde_from_factors(S, E, U, policy=policy)
    L = np.tril(_operand(S, hi).T @ _operand(E, hi), -1)
    return TrimFactors(
        U=as_array(U), S=as_array(S), T=as_array(T), T_tilde=as_array(T_tilde), R=as_array(R),
        L=as_array(L), E=E, omega=omega, scaling=scaling, sigmas=sigmas, rhos=rhos, betas=betas,
    )


def trim_rhqr_left(W, omega, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Left-looking trimmed factorization maintaining both triangles.

    Column j is transformed in one shot by the reversed compact form,
    w -= U T~^t (S^t (Omega w) - L w_head), then the reflector comes from
    its tail.  The updates' sketches of columns 2..m come from one block
    sketch of W[:, 1:]; each column then takes the two sketches inside
    trim_rh_vector.
    """
    lo = policy.low_dtype
    hi = policy.high_dtype
    Wl = factor_input(W, policy, scaling)
    n, m = Wl.shape
    omega = normalize_leading_columns(check_sketch(omega, n), m)
    E = omega.unit_column_sketches[:, :m].copy()
    Eh = to_dtype(E, hi)
    U = low_storage(n, m, lo)
    S = np.zeros((omega.ell, m), dtype=hi)
    R, T, Tt, L = np.zeros((4, m, m), dtype=hi)
    sigmas, rhos, betas = np.zeros((3, m))
    # the updates' sketches, in one block apply: bitwise the per-column ones
    Z = omega.apply(Wl[:, 1:], dtype=lo)
    for c in range(m):
        w = Wl[:, c].copy()
        if c:
            z = Z[:, c - 1].copy()
            h = _operand(S[:, :c], hi).T @ to_dtype(z, hi)
            h -= _operand(L[:c, :c], hi) @ to_dtype(w[:c], hi)
            w = w - reflector_matmul(U[:, :c], _operand(Tt[:c, :c], hi).T @ h, lo)
        step = trim_rh_vector(w[c:], omega, c + 1, scaling=scaling, policy=policy)
        U[c:, c] = step.v
        S[:, c] = step.s
        R[:c, c] = w[:c]
        R[c, c] = -step.sigma * step.rho
        # grow the slt table and both triangles by the new reflector
        lrow = _operand(Eh[:, :c], hi).T @ step.s
        L[c, :c] = lrow
        p = _operand(S[:, :c], hi).T @ step.s
        _extend_t(T, p, step.beta, c, hi=hi)
        # a block cast out of low_storage is made C-contiguous, as a cast
        # from the C-ordered store of other formats is: BLAS bits follow
        # the layout
        Uc = U[:c, :c]
        Uc = to_dtype(Uc, hi) if lo == hi else np.ascontiguousarray(Uc, dtype=hi)
        _extend_t(Tt, p - Uc.T @ lrow, step.beta, c, hi=hi)
        sigmas[c], rhos[c], betas[c] = step.sigma, step.rho, step.beta
    return TrimFactors(
        U=np.ascontiguousarray(U, dtype=np.float64), S=as_array(S), T=as_array(T),
        T_tilde=as_array(Tt), R=as_array(R), L=as_array(L), E=E, omega=omega, scaling=scaling,
        sigmas=sigmas, rhos=rhos, betas=betas,
    )
