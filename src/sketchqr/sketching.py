"""Sketching operators: Gaussian, subsampled Hadamard, sparse sign.

Every operator exposes `apply(X, dtype)` where dtype is the arithmetic
precision of the application: X is read in its own dtype, and the result
comes back in dtype.  The subsampled transform is never
materialized, only its signs and coordinate subset are stored.  Its
butterflies run in constant geometry, one buffer row per column (see fwht).

Half arithmetic runs as float32, rounded to half once per butterfly stage
(Dekker's split, see fwht) and once per product sum, and is bitwise equal
to numpy's float16 arithmetic.  A product of two halves is exact in
float32, so the SRHT's signed scale, the column scaling and the FWHT's
normalization each multiply in float32 and cast to half once.  The
matmul-based operators (gaussian, sparse sign) multiply a float32 copy of
the operator, accumulate in float32 and round the result to float16 once,
which is how half-precision hardware behaves.
"""

import operator

import numpy as np
import scipy.sparse

from .linalg import as_array, orthogonality_error, to_dtype


# columns per SRHT work array: a block is transformed this many at a time
_CHUNK = 32

# Dekker's splitting constant 2**13 + 1 for float32: t = x*C, t - (t - x)
# rounds x to its nearest 24 - 13 = 11 bit value, half's significand
_SPLIT = np.float32(8193)
# the split path's bound on every column's 1-norm; stage values stay below
# it times (1 + 2**-11)**p, far from 65520, where half overflows
_SPLIT_NORM = 2.0 ** 15
# make_sketch's operator names, which the CLI offers as --sketch
SKETCH_KINDS = ("srht", "gauss", "sparse")


def _split_half(x, scratch):
    """Round float32 x in place to the nearest half: three float32 ufuncs
    with `scratch` (same shape) as workspace.

    Equal to a cast to float16 and back, ties to even included, for every
    float32 multiple of 2**-24 below 65520 in magnitude.  Below 2**-14 such
    a value is itself a half subnormal, which the split leaves as it is;
    below 65520 the cast does not overflow.  Sums and differences of halves
    are such multiples, and they are what the FWHT rounds."""
    np.multiply(x, _SPLIT, out=scratch)
    np.subtract(scratch, x, out=x)
    np.subtract(scratch, x, out=x)


def _transform(a, b, half):
    """Unnormalized butterflies along the rows of the k x n buffer a, one
    row per column, with b (same shape and dtype) as the second buffer; both
    are overwritten.  With `half`, a is float32 holding halves and every
    stage is rounded to half.  Returns whichever buffer holds the result."""
    k, n = a.shape
    rnd = None
    if half:
        # the split's guard (see fwht), with b as scratch before stage one
        np.abs(a, out=b)
        if np.all(b.sum(axis=1, dtype=np.float64) <= _SPLIT_NORM):
            rnd = _split_half
        else:
            # large, infinite or NaN columns: round through a half buffer,
            # which owns overflow, inf and NaN
            h16 = np.empty((k, n), dtype=np.float16)

            def rnd(x, _):
                np.copyto(h16, x)
                np.copyto(x, h16)
    src, dst = a, b
    half_n = n // 2
    for _ in range(n.bit_length() - 1):
        s = src.reshape(k, half_n, 2)
        np.add(s[:, :, 0], s[:, :, 1], out=dst[:, :half_n])
        np.subtract(s[:, :, 0], s[:, :, 1], out=dst[:, half_n:])
        if rnd is not None:
            rnd(dst, src)
        src, dst = dst, src
    return src


def _norm_factor(n, dtype):
    """The 2**(-p/2) normalization in dtype, as a scalar of the arithmetic
    dtype: float32 holding the half value for float16."""
    f = dtype.type(n ** -0.5)
    return np.float32(f) if dtype == np.float16 else f


def fwht(x):
    """Normalized fast Walsh-Hadamard transform along axis 0.

    x has n = 2**p rows; columns are transformed independently.  Arithmetic
    runs in x's own dtype; the 2**(-p/2) normalization is a single multiply
    after the butterfly passes.

    Half butterflies run as float32 adds and subtracts, each stage rounded
    to half once: the float32 sum or difference of two halves, rounded to
    half, is the half operation's result bit for bit (double rounding is
    innocuous, as 24 >= 2*11 + 2), and numpy's float16 loops are slower.
    The rounding is Dekker's split (_split_half), three float32 ufuncs.  It
    is exact because a sum of halves is a multiple of 2**-24, so half's
    subnormal step needs no special case, as long as no stage reaches
    65520, where half overflows.  A stage value is bounded by its column's
    1-norm times (1 + 2**-11)**p, so the split runs when every column's
    float64 1-norm is at most 2**15; other input (large, inf or NaN) is
    rounded by a cast to float16 and back at each stage instead.  The
    normalization multiplies two halves in float32, which is exact, and
    casts to half once.

    Non-floating input (integers, booleans) is transformed in float64.

    Stage h (h = 1, 2, 4, ..., n/2) replaces each row pair (i, i+h) with
    i & h == 0 by (x_i + x_{i+h}, x_i - x_{i+h}).  The stages always run in
    this order, because rounding depends on it: criterion 10 compares the
    result with an extended-precision replay of this sequence, and any
    reordering would change the bits of every SRHT sketch.  The memory
    layout below changes only where elements sit, never the operands or
    the order of any element's operations.

    Layout: the butterflies run in Pease's constant geometry (J. ACM 15(2),
    1968) on a k x n buffer, one row per column.  Every stage reads the
    adjacent pairs (2j, 2j+1) of each row and writes their sum to element j
    and their difference to element j + n/2 of the other buffer, which
    rotates the index bits right by one place.  So stage t pairs the
    elements that stage h = 2**t pairs in natural order, with the same
    operands in the same order, and after all p stages the result is back
    in natural order.  Each stage is two ufunc calls of k*n/2 elements with
    contiguous writes, for every k and h, and needs no transpose.
    SRHTSketch transforms a block _CHUNK columns at a time, which keeps
    those buffers small: with one BLAS thread on a 2-core x86 machine, 300
    columns of 4096 rows take about 26 ms in chunks of 32 against 33 ms in
    one block.
    """
    a = np.asarray(x)
    n = a.shape[0]
    if n == 0 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    dtype = a.dtype if np.issubdtype(a.dtype, np.inexact) else np.dtype(np.float64)
    half = dtype == np.float16
    buf = a.reshape(n, -1).T.astype(np.float32 if half else dtype, order="C")
    out = _transform(buf, np.empty_like(buf), half)
    np.multiply(out, _norm_factor(n, dtype), out=out)
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


def _matmul_in(cast, M, X, dtype):
    """M @ X in dtype's arithmetic (float32 for half, rounded to half once
    at the end).  M is cast to that format on first use and kept in the
    cast dict, so an apply does not copy the operator."""
    adtype = np.dtype(np.float32) if dtype == np.float16 else dtype
    Ma = cast.get(adtype)
    if Ma is None:
        Ma = cast[adtype] = M.astype(adtype, copy=False)
    return (Ma @ to_dtype(X, adtype)).astype(dtype, copy=False)


class SketchOperator:
    """Base class: seeded linear map R^n -> R^ell applied column by column."""

    def __init__(self, ell, n, seed):
        self.ell = _integer("ell", ell)
        self.n = _integer("n", n)
        self.seed = _integer("seed", seed)
        if self.ell < 1 or self.n < 1:
            raise ValueError(f"invalid sketch dimensions {ell} x {n}")

    @property
    def shape(self):
        return (self.ell, self.n)

    def apply(self, X, dtype=np.float64):
        """Psi X for a vector or a block X in dtype's arithmetic, returned
        as an array of dtype."""
        X, vec = _columns(X, self.n)
        Y = self._apply(X, np.dtype(dtype))
        return Y[:, 0] if vec else Y

    def _apply(self, X, dtype):
        raise NotImplementedError


class GaussianSketch(SketchOperator):
    """Dense N(0, 1/ell) operator.

    Rows are generated from per-row-keyed Philox streams so the same (seed,
    ell, n) always yields the same matrix no matter how the application is
    chunked.  Matrices up to _CACHE_ENTRIES entries are kept; larger ones are
    regenerated in row blocks on each apply.
    """

    _CACHE_ENTRIES = 1 << 23

    def __init__(self, ell, n, seed):
        super().__init__(ell, n, seed)
        self._cache = {}
        if self.ell * self.n <= self._CACHE_ENTRIES:
            self._cache[np.dtype(np.float64)] = self._rows(0, self.ell)

    def _rows(self, i0, i1):
        G = np.empty((i1 - i0, self.n))
        c = self.ell ** -0.5
        for i in range(i0, i1):
            g = np.random.Generator(np.random.Philox(key=[self.seed, i]))
            G[i - i0] = g.standard_normal(self.n)
        G *= c
        return G

    def _apply(self, X, dtype):
        cached = self._cache.get(np.dtype(np.float64))
        if cached is not None:
            return _matmul_in(self._cache, cached, X, dtype)
        adtype = np.float32 if dtype == np.float16 else dtype
        Y = np.empty((self.ell, X.shape[1]), dtype=adtype)
        Xa = X.astype(adtype)
        step = max(1, self._CACHE_ENTRIES // self.n)
        for i0 in range(0, self.ell, step):
            i1 = min(i0 + step, self.ell)
            Y[i0:i1] = self._rows(i0, i1).astype(adtype) @ Xa
        return Y.astype(dtype)


class SRHTSketch(SketchOperator):
    """Subsampled randomized Hadamard transform with zero padding.

    Input length n is padded to the next power of two n_pad; the operator is
    sqrt(n_pad/ell) * (row subset) * H * diag(signs) on the padded vector.
    Memory is O(n_pad + ell): signs and the sampled coordinates only.
    Application order is fixed: scale and sign flip (one multiply by the
    signed scale, which has the bits of the two), pad, butterflies, gather,
    normalize.
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
        self._signed_scale = {}

    def _apply(self, X, dtype):
        half = dtype == np.float16
        adtype = np.dtype(np.float32) if half else dtype
        ss = self._signed_scale.get(dtype)
        if ss is None:
            # sign * scale: rounding is symmetric, so x * (sign * scale) has
            # the bits of (x * scale) * sign; half's scale is a half value
            scale = adtype.type(dtype.type(self.scale))
            ss = self._signed_scale[dtype] = self.signs[: self.n].astype(adtype) * scale
        norm = _norm_factor(self.n_pad, dtype)
        k = X.shape[1]
        Y = np.empty((self.ell, k), dtype=dtype)
        # every column is transformed on its own, so chunking keeps the bits
        for a in range(0, k, _CHUNK):
            b = min(a + _CHUNK, k)
            # one row per column, as _transform expects
            work = np.empty((b - a, self.n_pad), dtype=adtype)
            work[:, self.n:] = 0
            head = work[:, : self.n]
            np.multiply(X[:, a:b].T.astype(dtype, copy=False), ss, out=head)
            if half:
                # the float32 product of two halves is exact: one rounding
                head[...] = head.astype(dtype)
            out = _transform(work, np.empty_like(work), half)
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
        self._cast = {}

    @staticmethod
    def nonzeros(s, ell):
        """s, unless it is not an integer in [1, ell]: then ValueError."""
        s = _integer("nonzeros per column s", s)
        if not 1 <= s <= ell:
            raise ValueError(f"nonzeros per column s={s} must lie in [1, ell={ell}]")
        return s

    def _apply(self, X, dtype):
        return _matmul_in(self._cast, self._matrix, X, dtype)


class IdentitySketch(SketchOperator):
    """ell = n pass-through; the exact-embedding oracle for tests."""

    def __init__(self, n):
        super().__init__(n, n, 0)

    def _apply(self, X, dtype):
        return X.astype(dtype)


class ColumnScaledSketch(SketchOperator):
    """Wraps an operator so its m leading input coordinates are rescaled first.

    Used to give the wrapped operator exactly unit-norm leading column
    sketches; `unit_column_sketches` caches those ell x m sketched columns.
    """

    def __init__(self, base, scales, m, unit_column_sketches):
        super().__init__(base.ell, base.n, base.seed)
        self.base = base
        self.m = int(m)
        self.scales = np.asarray(scales, dtype=np.float64)
        self.unit_column_sketches = unit_column_sketches
        self._cast = {}

    def _apply(self, X, dtype):
        scales = self._cast.get(dtype)
        if scales is None:
            # half scales are kept as float32: the product of two halves is
            # exact there and is rounded to half once
            adtype = np.float32 if dtype == np.float16 else dtype
            scales = self.scales[:, None].astype(dtype).astype(adtype, copy=False)
            self._cast[dtype] = scales
        Xs = (X.astype(dtype, copy=False) * scales).astype(dtype, copy=False)
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
        self.out_dim = self.m + omega.ell

    @property
    def shape(self):
        return (self.out_dim, self.n)

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
