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
sketched once up front and never again.  Both sweeps grow U, S, T, T~ and
L one column at a time through one trimmed column step,
_add_trim_reflector; they differ only in when the later columns are
updated.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    SCALE_SQRT2,
    BreakdownError,
    ReflectorStep,
    _compact_update,
    _extend_t,
    as_array,
    check_prefix,
    check_scaling,
    check_sketch,
    column_norm,
    compact_q,
    factor_input,
    low_storage,
    matmul_in,
    sign,
    to_dtype,
)
from .precision import DOUBLE_POLICY, round_to
from .sketching import ColumnScaledSketch


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
    cols = omega.apply(np.eye(n, m))
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
    proceed, matching the main algorithm's convention.  A sketched norm
    that is not finite stops it (linalg.column_norm), as does sqrt2 scaling
    when 2/||Omega v||^2 overflows (scale_nonfinite), and unit scaling on
    an exactly zero sketched pivot or when dividing by it leaves a
    non-finite value.  Returns a ReflectorStep whose u is the tail vector v,
    of length n-j+1, in policy.low_dtype, and s = Omega [0; v] in
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
    rho = column_norm(z, j, policy, zero="tail_annihilated")
    sigma = sign(w_tail[0])
    v = to_dtype(w_tail, np.float64).copy()
    v[0] += sigma * rho
    v[:] = round_to(v, policy.low)
    x[jj:] = v
    vs = to_dtype(omega.apply(x, dtype=lo), np.float64)
    nv = column_norm(vs, j, policy)
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
    return ReflectorStep(v, vs, sigma, rho, beta)


@dataclass
class TrimFactors:
    """Output of the trimmed factorizations: W = (I - U T ut((Omega U)^t Omega)) [R; 0].

    S = Omega U with one sketch per reflector.  T composes reflectors in
    creation order, T_tilde in reverse; both are upper triangular.  L is the
    strictly lower table <Omega u_i, Omega e_k> and E holds the unit leading
    column sketches of the wrapped operator, so the ut(...) application
    never re-sketches canonical vectors.  Reflector c's sigma is
    -sign(R[c, c]), its rho |R[c, c]|, its beta T[c, c].
    """

    U: np.ndarray
    S: np.ndarray
    T: np.ndarray
    T_tilde: np.ndarray
    R: np.ndarray
    L: np.ndarray
    E: np.ndarray
    omega: ColumnScaledSketch

    def prefix(self, j):
        """Factors of the leading j columns; valid because every table grows
        by one row/column per reflector.  j must be an integer in 0..m."""
        j = check_prefix(j, self.R.shape[1])
        return TrimFactors(
            U=self.U[:, :j], S=self.S[:, :j], T=self.T[:j, :j],
            T_tilde=self.T_tilde[:j, :j], R=self.R[:j, :j], L=self.L[:j, :j],
            E=self.E[:, :j], omega=self.omega)


def trim_thin_q(factors):
    """Materialize Q with W = Q R in float64 (metrics run on this).

    The creation-order compact form applied to [I_m; 0] needs only
    ut((Omega U)^t Omega) [I; 0] = triu(S^t E).
    """
    U = as_array(factors.U)
    k = U.shape[1]
    M = np.triu(as_array(factors.S).T @ as_array(factors.E)[:, :k])
    return compact_q(U, factors.T, M)


def _add_trim_reflector(w, c, omega, Eh, U, S, T, Tt, L, R, scaling, policy):
    """The column step of both trimmed sweeps: the reflector built from
    w's tail (trim_rh_vector) becomes column c of U and S, and w's head with
    the new diagonal -sigma*rho column c of R.  Row c of L gets
    <Omega u_c, Omega e_k> for k < c, from Eh (E held in policy.high), and
    T and T~ grow by _extend_t."""
    hi = policy.high_dtype
    step = trim_rh_vector(w[c:], omega, c + 1, scaling=scaling, policy=policy)
    U[c:, c] = step.u
    S[:, c] = step.s
    R[:c, c] = w[:c]
    R[c, c] = -step.sigma * step.rho
    lrow = Eh[:, :c].T @ step.s
    L[c, :c] = lrow
    p = S[:, :c].T @ step.s
    _extend_t(T, p, step.beta, c, hi=hi)
    _extend_t(Tt, p - to_dtype(U[:c, :c], hi).T @ lrow, step.beta, c, hi=hi)


def trim_rhqr_right(W, omega, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Right-looking trimmed factorization: trim_rhqr_left's column step,
    then an update of the trailing columns through the compact-form kernel
    (_compact_update).  After column c, its coefficients take the masked
    sketch of W[:, c+1:] with rows :c dropped, read off the image Z of one
    block sketch Omega W[:, 1:] as Z[:, c:] - E[:, :c] W[:c, c+1:];
    Z -= s z^t then follows the update W -= u z^t, since s = Omega u.
    """
    lo = policy.low_dtype
    hi = policy.high_dtype
    X = factor_input(W, policy, scaling)
    n, m = X.shape
    omega = normalize_leading_columns(check_sketch(omega, n), m)
    E = omega.unit_column_sketches[:, :m].copy()
    Eh = to_dtype(E, hi)
    U = low_storage(n, m, lo)
    S = np.zeros((omega.ell, m), dtype=hi)
    R, T, Tt, L = np.zeros((4, m, m), dtype=hi)
    Z = to_dtype(omega.apply(X[:, 1:], dtype=lo), hi)
    for c in range(m):
        # X holds the updated columns c.., Z the image of columns c+1..
        _add_trim_reflector(X[:, 0], c, omega, Eh, U, S, T, Tt, L, R, scaling, policy)
        masked = Z[:, c:] - matmul_in(Eh[:, :c], X[:c, 1:], hi)
        X, z = _compact_update(U[:, c:c + 1], T[c:c + 1, c:c + 1], X[:, 1:],
                               S[:, c:c + 1].T @ masked, False, policy)
        Z[:, c:] -= matmul_in(S[:, c:c + 1], z, hi)
    return TrimFactors(
        U=as_array(U), S=as_array(S), T=as_array(T), T_tilde=as_array(Tt), R=as_array(R),
        L=as_array(L), E=E, omega=omega)


def trim_rhqr_left(W, omega, scaling=SCALE_SQRT2, policy=DOUBLE_POLICY):
    """Left-looking trimmed factorization maintaining both triangles.

    Column j is transformed in one shot by _compact_update's reversed form,
    w -= U T~^t (S^t (Omega w) - L w_head), then the column step
    (_add_trim_reflector) makes the reflector from its tail.  The updates'
    sketches of columns 2..m come from one block sketch of W[:, 1:]; each
    column then takes the two sketches inside trim_rh_vector.
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
    # the updates' sketches, in one block apply: bitwise the per-column ones
    Z = omega.apply(Wl[:, 1:], dtype=lo)
    for c in range(m):
        w = Wl[:, c].copy()
        if c:
            z = Z[:, c - 1].copy()
            h = S[:, :c].T @ to_dtype(z, hi)
            h -= L[:c, :c] @ to_dtype(w[:c], hi)
            w = _compact_update(U[:, :c], Tt[:c, :c], w, h, True, policy)[0]
        _add_trim_reflector(w, c, omega, Eh, U, S, T, Tt, L, R, scaling, policy)
    return TrimFactors(
        U=as_array(U), S=as_array(S), T=as_array(T), T_tilde=as_array(Tt), R=as_array(R),
        L=as_array(L), E=E, omega=omega)
