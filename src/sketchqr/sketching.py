"""Sketching operators: Gaussian, subsampled Hadamard, sparse sign.

Every operator exposes `apply(X, dtype)` where dtype is the arithmetic
precision of the application: X is read in its own dtype, and the result
comes back in dtype.  The subsampled transform is never
materialized, only its signs and coordinate subset are stored.  Its
Hadamard transform runs as Kronecker factors of at most 16 points, one
GEMM each (see _transform).

Half arithmetic accumulates in float32 and rounds the result to half once,
which is how half-precision hardware behaves.  The matmul-based operators
(gaussian, sparse sign) multiply a float32 copy of the operator.  The
SRHT's operand is its scaled and sign-flipped input, a product of two
halves, exact in float32, rounded to half once (linalg.elementwise_in,
with the bits of numpy's float16 multiply); its transform, normalization
and gather run in float32 as fwht's do, and the result is rounded to half
once.
"""

import operator

import numpy as np
import scipy.linalg
import scipy.sparse

from .linalg import as_array, elementwise_in, orthogonality_error, to_dtype


# columns per SRHT work array: a block is transformed this many at a time
_CHUNK = 32
# bits per Kronecker factor of the Hadamard transform, so factors of at
# most 16 points
_FACTOR_BITS = 4
# H_16, whose leading d x d block is H_d for every power of two d <= 16
_HADAMARD = scipy.linalg.hadamard(1 << _FACTOR_BITS).astype(np.float64)
# make_sketch's operator names, which the CLI offers as --sketch
SKETCH_KINDS = ("srht", "gauss", "sparse")


def _transform(y):
    """Unnormalized Walsh-Hadamard transform of the C-ordered n x k array y,
    one row per coordinate; returns the k x n result, one row per column,
    in natural order.  y is not written.

    The Sylvester matrix is a Kronecker product, H_n = H_{d_1} (x) ... (x)
    H_{d_r} (Van Loan, Computational Frameworks for the FFT, SIAM 1992),
    with p = log2(n) split into r near-equal factors of at most
    _FACTOR_BITS bits.  Each factor is one GEMM, `y.reshape(d, -1).T @ H_d`,
    which applies H_d along the leading index and rotates that index to the
    end, so after the last factor the indices are back in order with the
    column index first: Pease's constant geometry at block level, with no
    transpose.  From n = 4 on there are at least two factors, so no GEMM
    has a single row, which numpy hands to gemv, whose bits differ (at
    n = 2 each output sums two terms, alike in any order).  Every
    output of a factor is one dot product of at most 16 terms, whose
    products by +-1 are exact, and BLAS never splits it across threads, so
    a column's bits depend neither on the other columns of its block nor
    on the thread count.  A factor of d points costs d multiply-adds per
    entry, 48 in all at n = 2**14 against the butterflies' 14 additions,
    but at BLAS-3 speed."""
    n, k = y.shape
    p = n.bit_length() - 1
    r = max(-(-p // _FACTOR_BITS), min(p, 2))
    for i in range(r):
        d = 1 << (p // r + (i < p % r))
        y = y.reshape(d, n * k // d).T @ _HADAMARD[:d, :d].astype(y.dtype, copy=False)
    return y.reshape(k, n)


def fwht(x):
    """Normalized fast Walsh-Hadamard transform along axis 0.

    x has n = 2**p rows; columns are transformed independently and x is
    not written.  Returns a C-contiguous array of x's dtype (float64 for
    integers and booleans).  The transform is SRHTSketch's core,
    _transform, in x's dtype, then one multiply by the 2**(-p/2)
    normalization.  float16 input is transformed and normalized as its
    float32 copy and rounded to half once, at the end.
    """
    a = np.asarray(x)
    n = a.shape[0]
    if n == 0 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    dtype = a.dtype if np.issubdtype(a.dtype, np.inexact) else np.dtype(np.float64)
    adtype = np.dtype(np.float32) if dtype == np.float16 else dtype
    out = _transform(a.reshape(n, -1).astype(adtype, order="C"))
    out *= adtype.type(n) ** -0.5
    if a.ndim == 1:
        return out[0].astype(dtype, copy=False)
    return out.T.astype(dtype, order="C")


def _columns(X, n):
    X = np.asarray(X)
    if X.dtype.kind != "f":
        X = as_array(X)
    vec = X.ndim == 1
    if vec:
        X = X[:, None]
    if X.shape[0] != n:
        raise ValueError(f"operand has {X.shape[0]} rows, operator expects {n}")
    return X, vec


def _integer(name, v):
    """v as a Python int; a value that is not an integer (a float, a string)
    raises ValueError naming it, where int() would truncate or parse it."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{name}={v!r} must be an integer") from None


class SketchOperator:
    """Base class: seeded linear map R^n -> R^ell applied column by column."""

    def __init__(self, ell, n, seed):
        self.ell = _integer("ell", ell)
        self.n = _integer("n", n)
        self.seed = _integer("seed", seed)
        if self.ell < 1 or self.n < 1:
            raise ValueError(f"invalid sketch dimensions {ell} x {n}")
        self._kept = {}

    @property
    def shape(self):
        return (self.ell, self.n)

    def apply(self, X, dtype=np.float64):
        """Psi X for a vector or a block X in dtype's arithmetic, returned
        as an array of dtype."""
        X, vec = _columns(X, self.n)
        Y = self._apply(X, np.dtype(dtype))
        return Y[:, 0] if vec else Y

    def _per_dtype(self, dtype, make):
        """make(), made on the first apply in dtype and kept: an array of
        the operator cast to the format that apply works in."""
        if dtype not in self._kept:
            self._kept[dtype] = make()
        return self._kept[dtype]

    def _apply(self, X, dtype):
        # an operator held as a matrix (Gaussian, sparse sign): one product
        # in dtype's arithmetic, float32 for half, rounded to half once
        adtype = np.dtype(np.float32) if dtype == np.float16 else dtype
        M = self._per_dtype(adtype, lambda: self._matrix.astype(adtype, copy=False))
        return (M @ to_dtype(X, adtype)).astype(dtype, copy=False)


class GaussianSketch(SketchOperator):
    """Dense N(0, 1/ell) operator, drawn once when it is built.

    Row i comes from its own Philox stream, keyed by (seed, i), so the same
    (seed, ell, n) always yields the same matrix.  It is held in float64,
    ell * n * 8 bytes, with a float32 copy made on first use in single or
    half; an apply is one product.
    """

    def __init__(self, ell, n, seed):
        super().__init__(ell, n, seed)
        self._matrix = np.empty((self.ell, self.n))
        for i in range(self.ell):
            g = np.random.Generator(np.random.Philox(key=[self.seed, i]))
            self._matrix[i] = g.standard_normal(self.n)
        self._matrix *= self.ell ** -0.5


class SRHTSketch(SketchOperator):
    """Subsampled randomized Hadamard transform with zero padding.

    Input length n is padded to the next power of two n_pad; the operator is
    sqrt(n_pad/ell) * (row subset) * H * diag(signs) on the padded vector.
    Memory is O(n_pad + ell): signs and the sampled coordinates only.
    Application order is fixed: scale and sign flip (one multiply by the
    signed scale, which has the bits of the two), pad, transform, gather,
    normalize.  A block is transformed _CHUNK columns at a time, each chunk
    filled row by row into an n_pad x _CHUNK work array, so every column
    has the bits of its own one-column apply.  In half, the scaled input is
    rounded to half, and the rest runs in float32 up to one rounding of the
    normalized result (see the module docstring).
    """

    def __init__(self, ell, n, seed):
        super().__init__(ell, n, seed)
        self.n_pad = 1 << (self.n - 1).bit_length()
        if ell > self.n_pad:
            raise ValueError(f"ell={ell} exceeds padded length {self.n_pad}")
        rng = np.random.Generator(np.random.Philox(key=[self.seed, (1 << 40) + 1]))
        self.signs = (rng.integers(0, 2, self.n_pad) * 2 - 1).astype(np.float64)
        self.indices = rng.permutation(self.n_pad)[: self.ell].copy()
        self.scale = float(np.sqrt(self.n_pad / self.ell))

    def _apply(self, X, dtype):
        adtype = np.dtype(np.float32) if dtype == np.float16 else dtype
        # sign * scale: rounding is symmetric, so x * (sign * scale) has the
        # bits of (x * scale) * sign.  In half it is held as float32, which
        # elementwise_in reads as half values
        ss = self._per_dtype(dtype, lambda: (self.signs[: self.n, None].astype(dtype)
                                             * dtype.type(self.scale)).astype(adtype))
        norm = adtype.type(self.n_pad) ** -0.5
        k = X.shape[1]
        Y = np.empty((self.ell, k), dtype=dtype)
        for a in range(0, k, _CHUNK):
            b = min(a + _CHUNK, k)
            work = np.empty((self.n_pad, b - a), dtype=adtype)
            work[self.n:] = 0
            # in half, the product of two halves, exact in float32, is
            # rounded to half once and written as float32
            elementwise_in(np.multiply, X[:, a:b].astype(dtype, copy=False), ss, dtype,
                           out=work[: self.n])
            out = _transform(work)
            np.multiply(out[:, self.indices].T, norm, out=Y[:, a:b])
        return Y


class SparseSignSketch(SketchOperator):
    """Each input coordinate hits exactly s distinct output rows with +-1/sqrt(s).

    The rows of all n columns are drawn together by Floyd's sampling
    (Bentley & Floyd, CACM 30(9), 1987): for j = ell-s, ..., ell-1, each
    column draws t uniformly from [0, j] and takes t, or j if it already
    holds t.  That gives every column a uniform s-subset of the ell rows in
    s vectorized rounds, with O(s^2 n) comparisons for the duplicate checks.
    Each column's rows are sorted, so the CSC matrix is built directly in
    canonical form, s entries per column with int64 indices.
    """

    def __init__(self, ell, n, seed, s=8):
        super().__init__(ell, n, seed)
        self.s = s = self.nonzeros(s, self.ell)
        ell, n = self.shape
        rng = np.random.Generator(np.random.Philox(key=[self.seed, (1 << 40) + 2]))
        rows = np.empty((s, n), dtype=np.int64)
        for i, j in enumerate(range(ell - s, ell)):
            t = rng.integers(0, j + 1, n)
            rows[i] = np.where((rows[:i] == t).any(axis=0), j, t)
        rows.sort(axis=0)
        vals = (rng.integers(0, 2, (s, n)) * 2 - 1) / np.sqrt(s)
        self._matrix = scipy.sparse.csc_array(
            (vals.T.ravel(), rows.T.ravel(), np.arange(0, s * n + 1, s)), shape=(ell, n)
        )

    @staticmethod
    def nonzeros(s, ell):
        """s, unless it is not an integer in [1, ell]: then ValueError."""
        s = _integer("nonzeros per column s", s)
        if not 1 <= s <= ell:
            raise ValueError(f"nonzeros per column s={s} must lie in [1, ell={ell}]")
        return s


class IdentitySketch(SketchOperator):
    """ell = n pass-through; the exact-embedding oracle for tests."""

    def __init__(self, n):
        super().__init__(n, n, 0)

    def _apply(self, X, dtype):
        return X.astype(dtype)


class ColumnScaledSketch(SketchOperator):
    """Wraps an operator so its m leading input coordinates are rescaled first.

    `scales` holds the m factors, one per leading coordinate; the rest of
    the input passes unscaled.  Used to give the wrapped operator exactly
    unit-norm leading column sketches; `unit_column_sketches` caches those
    ell x m sketched columns.
    """

    def __init__(self, base, scales, unit_column_sketches):
        super().__init__(base.ell, base.n, base.seed)
        self.base = base
        self.scales = np.asarray(scales, dtype=np.float64)
        self.m = self.scales.shape[0]
        if self.scales.ndim != 1 or self.m > self.n:
            raise ValueError(f"{self.scales.shape} scales for {self.n} input coordinates")
        self.unit_column_sketches = unit_column_sketches

    def _apply(self, X, dtype):
        # in half, the product of two halves rounded once
        scales = self._per_dtype(dtype, lambda: self.scales[:, None].astype(dtype))
        Xs = X.astype(dtype)
        elementwise_in(np.multiply, Xs[: self.m], scales, dtype, out=Xs[: self.m])
        return self.base.apply(Xs, dtype=dtype)


class EmbeddedSketch:
    """[I_m ; Omega]: keeps m leading coordinates exactly, sketches the rest.

    Output dimension is m + omega.ell; input dimension m + omega.n.  The top
    block is a bitwise copy of X's rows in any precision, so apply returns
    the wider of X's dtype and dtype: dtype when X is held in it.
    """

    def __init__(self, m, omega):
        self.m = int(m)
        self.omega = omega
        self.n = self.m + omega.n
        self.ell = self.m + omega.ell

    @property
    def shape(self):
        return (self.ell, self.n)

    def apply(self, X, dtype=np.float64):
        X, vec = _columns(X, self.n)
        bottom = self.omega.apply(X[self.m:], dtype=dtype)
        Y = np.concatenate([X[: self.m], bottom], axis=0)
        return Y[:, 0] if vec else Y


def make_sketch(kind, ell, n, seed, s=8):
    """Factory for the operator names in SKETCH_KINDS."""
    if kind == "gauss":
        return GaussianSketch(ell, n, seed)
    if kind == "srht":
        return SRHTSketch(ell, n, seed)
    if kind == "sparse":
        return SparseSignSketch(ell, n, seed, s=s)
    raise ValueError(f"unknown sketch kind {kind!r}")


def check_embedding(op, Q, orth_tol=1e-12):
    """Empirical embedding quality of op on the subspace spanned by Q.

    Q must have float64-orthonormal columns (orthogonality error <= orth_tol);
    returns max(sigma_max - 1, 1 - sigma_min) of the sketched basis.
    """
    Q = as_array(Q)
    err = orthogonality_error(Q)
    if err > orth_tol:
        raise ValueError(f"basis is not orthonormal: ||Q^tQ - I|| = {err:.3e}")
    Y = op.apply(Q)
    sv = np.linalg.svd(Y, compute_uv=False)
    return float(max(sv[0] - 1.0, 1.0 - sv[-1]))
