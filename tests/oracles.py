"""Independent reference implementations the tests check against.

Everything here is deliberately written from the defining formulas, not by
calling into sketchqr, so agreement is evidence rather than tautology.
CountingSketch wraps an operator to count how often a factorization sketches;
MatrixSketch puts an explicit matrix behind sketchqr's operator interface.
The sweeps grow their compact-form triangles by the recursion of Schreiber &
Van Loan; t_factor_from_sketches and t_tilde_from_factors give the same
triangles in closed form, by one triangular inversion after the sweep,
and reflector_scalars reads each reflector's sigma, rho and beta off R and T.
"""

import numpy as np
import scipy.linalg

from sketchqr.sketching import SketchOperator


class CountingSketch:
    """Passes applications through to `base`, recording each one's width."""

    def __init__(self, base):
        self.base = base
        self.n = base.n
        self.ell = base.ell
        self.seed = base.seed
        self.widths = []

    def apply(self, X, dtype=np.float64):
        self.widths.append(1 if np.ndim(X) == 1 else np.shape(X)[1])
        return self.base.apply(X, dtype=dtype)


class MatrixSketch(SketchOperator):
    """An explicit ell x n matrix used through the operator interface.  It
    multiplies in dtype's arithmetic (float32 for half) and rounds the
    product to dtype once."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("sketch matrix must be two dimensional")
        super().__init__(matrix.shape[0], matrix.shape[1], 0)
        self.matrix = matrix

    def _apply(self, X, dtype):
        adtype = np.float32 if dtype == np.float16 else dtype
        return (self.matrix.astype(adtype) @ X.astype(adtype)).astype(dtype)


def t_factor_from_sketches(S):
    """The compact-form triangle T from S = Psi U alone, in float64.

    Puglisi's identity S^t S = T^{-1} + T^{-t} makes T^{-1} the strict upper
    triangle of S^t S plus half its diagonal.
    """
    S = np.asarray(S, dtype=np.float64)
    G = S.T @ S
    Tinv = np.triu(G, 1) + np.diag(np.diagonal(G) / 2.0)
    return scipy.linalg.solve_triangular(Tinv, np.eye(G.shape[0]))


def t_tilde_from_factors(S, E, U):
    """The trimmed reversed-product triangle T~ from S, E and U, in float64.

    A = T^{-1} - ut((Omega U)^t Omega) U is lower triangular with diagonal
    -||s_i||^2 / 2, and T~^t = -A^{-1}.  Leading blocks of a triangular
    inverse are inverses of leading blocks, so prefixes of the result agree
    with the recursion.
    """
    S, E, U = (np.asarray(X, dtype=np.float64) for X in (S, E, U))
    m = S.shape[1]
    G = S.T @ S
    L = np.tril(S.T @ E[:, :m], -1)
    A = L @ U[:m] - np.tril(G, -1) - np.diag(np.diagonal(G) / 2.0)
    return -scipy.linalg.solve_triangular(A.T, np.eye(m))


def reflector_scalars(R, T):
    """(sigma, rho, beta) of every reflector of a compact factorization, in
    float64: column c writes R[c, c] = -sigma_c rho_c with rho_c > 0, and
    T keeps beta_c on its diagonal (Schreiber & Van Loan)."""
    d = np.diagonal(np.asarray(R, dtype=np.float64))
    return (np.where(d > 0, -1.0, 1.0), np.abs(d),
            np.diagonal(np.asarray(T, dtype=np.float64)).copy())


def jacobi_singular_values(A, sweeps=60, tol=1e-30):
    """Singular values by one-sided Jacobi rotations on the columns."""
    B = np.array(A, dtype=np.float64)
    m = B.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for p in range(m - 1):
            for q in range(p + 1, m):
                app = B[:, p] @ B[:, p]
                aqq = B[:, q] @ B[:, q]
                apq = B[:, p] @ B[:, q]
                off = max(off, abs(apq))
                if apq == 0.0:
                    continue
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                Bp = c * B[:, p] - s * B[:, q]
                Bq = s * B[:, p] + c * B[:, q]
                B[:, p], B[:, q] = Bp, Bq
        if off < tol * np.linalg.norm(B):
            break
    sv = np.linalg.norm(B, axis=0)
    return np.sort(sv)[::-1]


def hadamard_reference(x):
    """Unnormalized Walsh-Hadamard transform along axis 0 from the Sylvester
    recursion H_{2h} = [[H_h, H_h], [H_h, -H_h]], run bottom up over
    h = 1, 2, ..., n/2.  Works in x's dtype (longdouble included)."""
    a = np.array(x)
    n = a.shape[0]
    h = 1
    while h < n:
        b = a.reshape(n // (2 * h), 2, h, -1)
        a = np.concatenate([b[:, :1] + b[:, 1:], b[:, :1] - b[:, 1:]], axis=1).reshape(a.shape)
        h *= 2
    return a


def dense_operator_matrix(op):
    """Materialize a sketch operator by applying it to the identity."""
    return op.apply(np.eye(op.n))


def dense_embedded_matrix(psi):
    return psi.apply(np.eye(psi.n))


def dense_reflector(z, theta, beta=None):
    """P = I - beta * z (theta z)^t theta as an explicit n x n matrix.

    theta is the materialized sketch matrix.  beta defaults to the defining
    2 / ||theta z||^2.
    """
    z = np.asarray(z, dtype=np.float64)
    tz = theta @ z
    if beta is None:
        beta = 2.0 / (tz @ tz)
    return np.eye(len(z)) - beta * np.outer(z, theta.T @ tz)


def mgs_arnoldi(A, b, x0, m):
    """Textbook modified Gram-Schmidt Arnoldi; returns Q (n x k+1), H ((k+1) x k)."""
    matvec = (lambda v: A @ v) if not callable(A) else A
    r0 = b - matvec(x0)
    beta = np.linalg.norm(r0)
    n = len(b)
    Q = np.zeros((n, m + 1))
    H = np.zeros((m + 1, m))
    Q[:, 0] = r0 / beta
    k = m
    for j in range(m):
        w = matvec(Q[:, j])
        for i in range(j + 1):
            H[i, j] = Q[:, i] @ w
            w = w - H[i, j] * Q[:, i]
        H[j + 1, j] = np.linalg.norm(w)
        if H[j + 1, j] <= 1e-14 * np.linalg.norm(matvec(Q[:, j])):
            k = j + 1
            break
        Q[:, j + 1] = w / H[j + 1, j]
    return Q[:, : k + 1], H[: k + 1, : k], beta


def mgs_gmres(A, b, x0, m):
    """Reference GMRES on top of mgs_arnoldi, solved with lstsq."""
    Q, H, beta = mgs_arnoldi(A, b, x0, m)
    k = H.shape[1]
    e1 = np.zeros(k + 1)
    e1[0] = beta
    y, *_ = np.linalg.lstsq(H, e1, rcond=None)
    x = x0 + Q[:, :k] @ y
    resid = np.linalg.norm(e1 - H @ y)
    return x, resid


def householder_arnoldi(A, b, x0, m):
    """Textbook Householder Arnoldi with explicit dense reflector matrices:
    at step j a reflector zeroing z below coordinate j is built, the basis
    column is q_j = P_1...P_j e_j, and the next z is P_j...P_1 A q_j.
    Returns Q (n x m), H ((m+1) x m)."""
    matvec = (lambda v: A @ v) if not callable(A) else A
    n = len(b)
    z = b - matvec(x0)
    Ps = []
    H = np.zeros((m + 1, m))
    Q = np.zeros((n, m))
    for j in range(1, m + 2):
        jj = j - 1
        tail = z[jj:]
        rho = np.linalg.norm(tail)
        sigma = 1.0 if tail[0] >= 0 else -1.0
        v = np.zeros(n)
        v[jj:] = tail
        v[jj] += sigma * rho
        nv = np.linalg.norm(v)
        if nv > 0:
            v /= nv
        P = np.eye(n) - 2.0 * np.outer(v, v)
        Ps.append(P)
        if j >= 2:
            h = P @ z
            H[:, j - 2] = h[: m + 1]
        if j <= m:
            q = np.eye(n)[:, jj]
            for Pk in reversed(Ps):
                q = Pk @ q
            Q[:, jj] = q
            w = matvec(q)
            for Pk in Ps:
                w = Pk @ w
            z = w
    return Q, H
