import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chi2, chi2_contingency

from sketchqr.precision import round_to
from sketchqr.sketching import (
    ColumnScaledSketch,
    EmbeddedSketch,
    GaussianSketch,
    IdentitySketch,
    SRHTSketch,
    SparseSignSketch,
    check_embedding,
    fwht,
    make_sketch,
)
from oracles import (
    MatrixSketch,
    dense_embedded_matrix,
    dense_operator_matrix,
    hadamard_reference,
)


def test_fwht_known_values():
    out = fwht(np.array([1.0, 1.0]))
    assert np.allclose(out, [np.sqrt(2.0), 0.0], atol=1e-15)
    out = fwht(np.array([1.0, 0.0]))
    assert np.allclose(out, [1 / np.sqrt(2.0)] * 2, atol=1e-15)
    # first basis vector maps to the constant column
    out = fwht(np.eye(8)[:, 0])
    assert np.allclose(out, np.full(8, 8.0 ** -0.5), atol=1e-15)


def test_fwht_matches_recursive_reference(rng):
    x = rng.standard_normal((128, 3))
    ref = hadamard_reference(x) / np.sqrt(128.0)
    assert np.allclose(fwht(x), ref, atol=1e-13)


def test_fwht_is_involution(rng):
    x = rng.standard_normal(64)
    assert np.allclose(fwht(fwht(x)), x, atol=1e-13)


def test_fwht_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        fwht(np.ones(12))


def test_fwht_integer_and_bool_input_run_in_float64():
    out = fwht(np.array([1, 1]))
    assert out.dtype == np.float64
    assert np.array_equal(out, fwht(np.array([1.0, 1.0])))
    B = np.array([[True, False], [True, True], [False, False], [True, False]])
    out = fwht(B)
    assert out.dtype == np.float64
    assert np.array_equal(out, fwht(B.astype(np.float64)))


def test_fwht_preserves_dtype(rng):
    x = rng.standard_normal(32).astype(np.float16)
    y = fwht(x)
    assert y.dtype == np.float16
    assert np.allclose(y.astype(float), fwht(x.astype(float)), atol=32 * 2.0 ** -11)
    xl = rng.standard_normal(16).astype(np.longdouble)
    assert fwht(xl).dtype == np.longdouble


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([4, 8, 16]))
def test_fwht_linearity(seed, n):
    g = np.random.default_rng(seed)
    x, y = g.standard_normal(n), g.standard_normal(n)
    a = g.standard_normal()
    assert np.allclose(fwht(a * x + y), a * fwht(x) + fwht(y), atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(0, 14),
    k=st.sampled_from([1, 2, 3, 63, 64, 65, 300]),
    dtype=st.sampled_from([np.float16, np.float32, np.float64, np.longdouble]),
    layout=st.sampled_from(["1d", "C", "F", "reversed"]),
    seed=st.integers(0, 2 ** 31 - 1),
)
@example(p=14, k=1, dtype=np.longdouble, layout="1d", seed=0)
@example(p=14, k=63, dtype=np.float16, layout="reversed", seed=1)
@example(p=14, k=65, dtype=np.float32, layout="F", seed=2)
@example(p=12, k=300, dtype=np.float64, layout="C", seed=3)
@example(p=14, k=1, dtype=np.float64, layout="1d", seed=4)
@example(p=11, k=1, dtype=np.float16, layout="1d", seed=5)
@example(p=0, k=3, dtype=np.float32, layout="F", seed=6)
def test_fwht_is_within_criterion_10_bound_of_extended_reference(p, k, dtype, layout, seed):
    # each column within 10 (log2 n + 5) u ||x|| of the Sylvester recursion
    # run in extended precision, in every dtype and layout; at most 2**21
    # entries, since the reference keeps several copies alive
    p = min(p, (2 ** 21 // k).bit_length() - 1)
    X = np.random.default_rng(seed).standard_normal((1 << p, k)).astype(dtype)
    x = {"1d": X[:, 0], "C": X, "F": np.asfortranarray(X), "reversed": X[::-1, ::-1]}[layout]
    before = x.copy()
    out = fwht(x)
    assert out.dtype == x.dtype and out.shape == x.shape
    assert out.flags.c_contiguous
    assert np.array_equal(x, before)
    xl = x.astype(np.longdouble).reshape(1 << p, -1)
    ref = hadamard_reference(xl) * np.longdouble(1 << p) ** np.longdouble(-0.5)
    err = np.linalg.norm(out.astype(np.longdouble).reshape(ref.shape) - ref, axis=0)
    bound = 10.0 * (p + 5.0) * float(np.finfo(dtype).eps / 2)
    assert np.all(err <= bound * np.linalg.norm(xl, axis=0))


def _half_inputs(case, k):
    rng = np.random.default_rng(k)
    if case == "ties":
        # halves 1 and 2**-11 of both signs: sums such as 1 + 2**-11 lie
        # halfway between two halves and must round to even
        vals = np.array([1.0, -1.0, 2.0 ** -11, -(2.0 ** -11)])
        return rng.choice(vals, (2048, k)).astype(np.float16)
    if case == "overflow":
        # constant columns whose transform passes 65504, where half
        # overflows, and two infinities per column, whose difference is NaN
        X = np.full((2048, k), 30000.0)
        X[:2] = np.inf
        return X.astype(np.float16)
    return (rng.standard_normal((2048, k)) * case).astype(np.float16)


@pytest.mark.parametrize("case", [1e-6, 1.0, 3000.0, "ties", "overflow"])
@pytest.mark.parametrize("k", [1, 8, 150])
def test_half_transforms_round_the_float32_result_once(case, k):
    # half fwht is the transform of its float32 copy, rounded to half once;
    # the half SRHT rounds its scaled input (two halves' product) to half,
    # transforms it as fwht does in float32 and rounds once; bit for bit,
    # through half subnormals (1e-6), ties, and overflow to inf and NaN
    X = _half_inputs(case, k)
    op = SRHTSketch(600, 2000, k)
    with np.errstate(over="ignore", invalid="ignore"):
        out = fwht(X)
        ref = fwht(X.astype(np.float32)).astype(np.float16)
        Y = op.apply(X[:2000], dtype=np.float16)
        work = np.zeros((2048, k), dtype=np.float32)
        work[:2000] = X[:2000] * (op.signs[:2000, None].astype(np.float16)
                                  * np.float16(op.scale))
        Y_ref = fwht(work)[op.indices].astype(np.float16)
    for got, want in ((out, ref), (Y, Y_ref)):
        assert got.dtype == np.float16
        assert np.array_equal(got.view(np.uint16), want.view(np.uint16))
        if case == "overflow":
            assert np.isinf(got).any() and np.isnan(got).any()


def _exact_inputs(n, k):
    # integer arithmetic and one correctly rounded division: no libm call,
    # so the same bits on every machine
    i = np.arange(n)[:, None]
    j = np.arange(k)[None, :]
    return ((i * 7919 + j * 104729) % 2003 - 1001) / 1001.0


def _digest(Y):
    data = np.ascontiguousarray(Y, dtype=np.float64).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


# Digests of the Kronecker-factored transform.  Scaling, sign flips and the
# gather are elementwise IEEE operations, but each factor is a BLAS GEMM,
# so the digests rest on its summation order over at most 16 terms (the
# same at 1 and 2 threads, tests/test_determinism.py); a change to the
# factor split, the factor order or the BLAS kernel breaks them.
# (ell, n, seed, block columns, dtype[, input scale]) -> (vector digest,
# block digest); the scale is a power of two, so scaled inputs are exact
SRHT_DIGESTS = {
    (24, 100, 5, 3, "float16"): (
        "a2e027de73ff88821e0ad06f4e7d4160",
        "ae5539052de9df31d1e9970f6a25bc76",
    ),
    (24, 100, 5, 3, "float32"): (
        "8ee6652896ca25c38c26345a1177606c",
        "82671ffa7c0edd40bff72874d180af77",
    ),
    (24, 100, 5, 3, "float64"): (
        "9682cc0953d6b0a088a608642f25e7f8",
        "55054494667c5f7819b0c52497720822",
    ),
    (64, 1000, 3, 7, "float16"): (
        "f0a3b5b1dc06b0d897da43441b3ad77b",
        "0303d675ae25bf3163e14c10b3d52829",
    ),
    (64, 1000, 3, 7, "float32"): (
        "df0a632548c3ad9a99204bf248942abc",
        "25b91b641c7c9b7624c9b1a6a891f6f3",
    ),
    (64, 1000, 3, 7, "float64"): (
        "abd4018ab7084c1206c297399138265d",
        "2b50cf1e4259f23b08ce926da2b33bac",
    ),
    (200, 3000, 11, 70, "float16"): (
        "1c261c1df091d0fcc86d1c265021d12b",
        "bbd45962838d99434d10dc8224deeb8e",
    ),
    (200, 3000, 11, 70, "float32"): (
        "07277e9749a838e00b3df5d0b120b884",
        "c09e67d0caffb54746d2b3c2f53ecce6",
    ),
    (200, 3000, 11, 70, "float64"): (
        "bcc4aeec64448e33a1db548b7d01a7ad",
        "1a973512c7cd7bcbab575bc66ce971f6",
    ),
    (120, 4096, 7, 2, "float16"): (
        "51e8d8080f83e8d45af36e021b991073",
        "d212f98ac635092adda2b4390046c846",
    ),
    (120, 4096, 7, 2, "float32"): (
        "a36099ca6be677a785a4ed08a3fe03fa",
        "de8829f5581bafcc008574f02cb44285",
    ),
    (120, 4096, 7, 2, "float64"): (
        "1fd282c960415456dc6b8e338a9cf355",
        "3e3a94c8cb21f18efd943d2b5f27ebc8",
    ),
    # the tall size, n_pad 16384; the 40-column block spans two chunks
    (768, 16192, 17, 40, "float16"): (
        "0ee120a4dba1c4b944ccc6551ebadf8c",
        "f49a0a7c260f7da0429119ab30da3f97",
    ),
    (768, 16192, 17, 40, "float16", 0.5): (
        "e0d8bb1eb695944fe403ed3354f9102a",
        "8fa6406768284351b6ffa3562ea09f15",
    ),
    (768, 16192, 17, 40, "float32"): (
        "1a36b26440fc38cd5297f1e27fe85717",
        "24200f85e8db900c25c9bd7a2cda3022",
    ),
    (768, 16192, 17, 40, "float64"): (
        "fadf03d528cf4fe0dbc4ce042bbb63fc",
        "391ae6ed59cce7a3f84b7961923677b6",
    ),
}
# dtype -> digest of [I_20; SRHT(90, 1500, seed 13)] applied to 20 columns
EMBEDDED_DIGESTS = {
    "float16": "1d3202c88c1eadd923f69c4c0c37a868",
    "float32": "24ff38c17a2651b0284c1ba5635269cd",
    "float64": "4ebac85311f188971ee0152deadd7692",
}


@pytest.mark.parametrize("case", list(SRHT_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_srht_golden_digests(case):
    ell, n, seed, k, dtype = case[:5]
    scale = case[5] if len(case) > 5 else 1.0
    op = SRHTSketch(ell, n, seed)
    v = op.apply(_exact_inputs(n, 1)[:, 0] * scale, dtype=dtype)
    B = op.apply(_exact_inputs(n, k) * scale, dtype=dtype)
    assert v.shape == (ell,) and B.shape == (ell, k)
    assert (_digest(v), _digest(B)) == SRHT_DIGESTS[case]


@pytest.mark.parametrize("dtype", list(EMBEDDED_DIGESTS))
def test_embedded_srht_golden_digest(dtype):
    psi = EmbeddedSketch(20, SRHTSketch(90, 1500, 13))
    Y = psi.apply(_exact_inputs(1520, 20), dtype=dtype)
    assert Y.shape == (110, 20)
    assert _digest(Y) == EMBEDDED_DIGESTS[dtype]


# dtype -> (block, vector) digests of SparseSignSketch(60, 500, seed 3, s=4)
# on 5 exact columns; its explicit matrix as a MatrixSketch gives the same.
# The sparse product is scipy's own loop, so these hold on any machine.
SPARSE_SIGN_DIGESTS = {
    "float16": ("052ab4b6c531c87a36d30632caa96065", "c03d8336d6bd9fd4564a7b02fcfd07e7"),
    "float32": ("0c47efb0a59e5b3dc3709efe4474dece", "c6ed241db366985d1a3ebdd4d5bc914e"),
    "float64": ("38dff76be6274e50f0f926cdc6cbc475", "4f567ec79fc3d0167d275a77c271d5ac"),
}


def test_sparse_and_matrix_sketch_golden_digests():
    sp = SparseSignSketch(60, 500, 3, s=4)
    ms = MatrixSketch(sp._matrix.toarray())
    X = _exact_inputs(500, 5)
    # twice round, so the second apply in each format reuses the cast operator
    for dtype in 2 * list(SPARSE_SIGN_DIGESTS):
        block, vec = SPARSE_SIGN_DIGESTS[dtype]
        assert _digest(sp.apply(X, dtype=dtype)) == block
        assert _digest(ms.apply(X, dtype=dtype)) == block
        assert _digest(sp.apply(X[:, 2], dtype=dtype)) == vec


def test_operators_are_deterministic(rng):
    x = rng.standard_normal(40)
    for kind in ("gauss", "srht", "sparse"):
        a = make_sketch(kind, 16, 40, seed=11)
        b = make_sketch(kind, 16, 40, seed=11)
        c = make_sketch(kind, 16, 40, seed=12)
        assert np.array_equal(a.apply(x), b.apply(x))
        assert not np.array_equal(a.apply(x), c.apply(x))
        assert a.shape == (16, 40)


@pytest.mark.parametrize("kind", ["gaussian", "sparse_sign", "hadamard"])
def test_make_sketch_refuses_an_unknown_kind(kind):
    with pytest.raises(ValueError, match=f"unknown sketch kind '{kind}'"):
        make_sketch(kind, 16, 40, seed=11)


def test_gaussian_statistics():
    op = GaussianSketch(400, 300, seed=5)
    G = dense_operator_matrix(op)
    assert abs(G.mean()) < 1e-3
    assert G.var() * op.ell == pytest.approx(1.0, rel=0.02)


def test_gaussian_chunked_matches_cached(rng):
    X = rng.standard_normal((50, 3))
    op = GaussianSketch(8, 50, seed=2)
    cached = op.apply(X)
    op._cache.clear()  # force the row-block regeneration path
    assert np.allclose(op.apply(X), cached, rtol=1e-15, atol=0)


def test_srht_padding_and_subset():
    op = SRHTSketch(8, 12, seed=3)
    assert op.n_pad == 16
    assert len(set(op.indices.tolist())) == 8
    assert op.scale == pytest.approx(np.sqrt(16 / 8))
    with pytest.raises(ValueError):
        SRHTSketch(20, 12, seed=3)


def test_srht_full_sampling_is_isometry(rng):
    x = rng.standard_normal(64)
    op = SRHTSketch(64, 64, seed=9)
    assert np.linalg.norm(op.apply(x)) == pytest.approx(np.linalg.norm(x), rel=1e-13)


def test_srht_matches_manual_composition(rng):
    # replay scale -> signs -> pad -> transform -> gather from the stored state
    op = SRHTSketch(5, 6, seed=21)
    x = rng.standard_normal(6)
    w = np.zeros(op.n_pad)
    w[:6] = x * op.scale * op.signs[:6]
    ref = (hadamard_reference(w) / np.sqrt(op.n_pad))[op.indices]
    assert np.allclose(op.apply(x), ref, atol=1e-14)


def test_sparse_sign_structure():
    op = SparseSignSketch(10, 7, seed=2, s=3)
    M = dense_operator_matrix(op)
    for j in range(7):
        nz = np.nonzero(M[:, j])[0]
        assert len(nz) == 3
        assert np.allclose(np.abs(M[nz, j]), 3 ** -0.5)
    with pytest.raises(ValueError):
        SparseSignSketch(4, 7, seed=2, s=5)


@pytest.mark.parametrize("ell,n,s", [(10, 500, 1), (10, 500, 3), (10, 500, 10),
                                     (292, 2000, 8), (7, 3, 7)])
def test_sparse_sign_columns_hold_s_distinct_rows(ell, n, s):
    M = SparseSignSketch(ell, n, seed=4, s=s)._matrix
    assert M.shape == (ell, n)
    assert M.indices.dtype == M.indptr.dtype == np.int64
    assert M.has_canonical_format
    assert np.array_equal(M.indptr, np.arange(0, s * n + 1, s))
    rows = M.indices.reshape(n, s)
    assert np.all(np.diff(rows, axis=1) > 0)  # sorted, so distinct
    assert rows.min() >= 0 and rows.max() < ell
    assert np.all(np.abs(M.data) == 1 / np.sqrt(s))
    if s == ell:
        assert np.all(rows == np.arange(ell))


def test_sparse_sign_rows_and_signs_are_uniform():
    # bounds fixed in advance: the 0.1% and 99.9% points of chi-square
    ell, n, s = 50, 20000, 8
    M = SparseSignSketch(ell, n, seed=17, s=s)._matrix
    # each column holds a uniform s-subset, so a row's hit count has variance
    # n p (1 - p), p = s/ell, and the counts sum to n s: rescaled, the
    # statistic is chi-square with ell - 1 degrees of freedom
    p = s / ell
    hits = np.bincount(M.indices, minlength=ell)
    stat = ((hits - n * p) ** 2).sum() / (n * p * (1 - p)) * (ell - 1) / ell
    assert chi2.ppf(0.001, ell - 1) < stat < chi2.ppf(0.999, ell - 1)
    # signs: fair overall, and independent of the row they land in
    pos = M.data > 0
    assert abs(pos.sum() - n * s / 2) < 3.29 * np.sqrt(n * s / 4)
    table = np.stack([np.bincount(M.indices[pos], minlength=ell),
                      np.bincount(M.indices[~pos], minlength=ell)])
    stat = chi2_contingency(table, correction=False)[0]
    assert chi2.ppf(0.001, ell - 1) < stat < chi2.ppf(0.999, ell - 1)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_sparse_sign_subsets_are_uniform(s):
    # every one of the C(6, s) subsets is equally likely, not just every row
    ell, n = 6, 30000
    rows = SparseSignSketch(ell, n, seed=23, s=s)._matrix.indices.reshape(n, s)
    codes = (1 << rows).sum(axis=1)
    _, counts = np.unique(codes, return_counts=True)
    k = math.comb(ell, s)
    assert len(counts) == k
    stat = ((counts - n / k) ** 2 / (n / k)).sum()
    assert chi2.ppf(0.001, k - 1) < stat < chi2.ppf(0.999, k - 1)


def test_sparse_sign_same_seed_same_operator():
    a, b, c = (SparseSignSketch(40, 300, seed, s=5) for seed in (9, 9, 10))
    for name in ("indices", "indptr", "data"):
        assert np.array_equal(getattr(a._matrix, name), getattr(b._matrix, name))
    assert not np.array_equal(a._matrix.indices, c._matrix.indices)


@pytest.mark.parametrize("s", [2.5, "3", 3.0, None])
def test_sparse_sign_rejects_non_integer_s(s):
    with pytest.raises(ValueError, match="s="):
        SparseSignSketch(10, 20, seed=1, s=s)


def test_sparse_sign_accepts_numpy_integer_s():
    op = SparseSignSketch(10, 20, seed=1, s=np.int64(3))
    assert op.s == 3 and type(op.s) is int
    assert np.array_equal(op._matrix.indices,
                          SparseSignSketch(10, 20, seed=1, s=3)._matrix.indices)


@pytest.mark.parametrize("make,name", [
    (lambda: SRHTSketch(8.5, 20, 1), "ell"),
    (lambda: SRHTSketch(8, 20.9, 1), "n"),
    (lambda: GaussianSketch(8.7, 20, 1), "ell"),
    (lambda: GaussianSketch(8, 20, "1"), "seed"),
    (lambda: SparseSignSketch(8, 20, 1.9, s=3), "seed"),
    (lambda: IdentitySketch(4.0), "ell"),
])
def test_sketches_reject_non_integer_dimensions_and_seed(make, name):
    # int() used to truncate these, or to fail later with an unrelated error
    with pytest.raises(ValueError, match=f"^{name}=.* must be an integer$"):
        make()


@pytest.mark.parametrize("cls", [SRHTSketch, GaussianSketch, SparseSignSketch])
def test_sketches_accept_numpy_integers(cls):
    op = cls(np.int64(8), np.int32(20), np.uint8(3))
    assert all(type(v) is int for v in (op.ell, op.n, op.seed))
    ref = cls(8, 20, 3)
    X = np.arange(40.0).reshape(20, 2)
    assert np.array_equal(op.apply(X), ref.apply(X))


def test_embedded_top_block_is_bitwise():
    rng = np.random.default_rng(0)
    om = GaussianSketch(6, 10, seed=4)
    psi = EmbeddedSketch(3, om)
    X = rng.standard_normal((13, 5))
    Y = psi.apply(X)
    assert Y.shape == (9, 5)
    assert np.array_equal(Y[:3], X[:3])
    assert np.array_equal(Y[3:], om.apply(X[3:]))
    # leading coordinates have exactly unit sketched norm
    e = np.zeros(13)
    e[1] = 1.0
    assert np.linalg.norm(psi.apply(e)) == 1.0


def test_mat_vec_consistency(rng):
    for op in (make_sketch("srht", 8, 20, 1), make_sketch("gauss", 8, 20, 1),
               make_sketch("sparse", 8, 20, 1, s=4)):
        X = rng.standard_normal((20, 3))
        cols = np.stack([op.apply(X[:, j]) for j in range(3)], axis=1)
        assert np.allclose(op.apply(X), cols, atol=1e-14)
        with pytest.raises(ValueError):
            op.apply(np.ones(21))
    # the sweeps sketch a block once and read its columns as the per-column
    # sketches: SRHT (chunked transforms) and sparse sign (per-column CSC
    # products) must give the same bits, around the chunk width too, and
    # at the tall size (n_pad 16384) with a block that spans two chunks
    for n, ell, widths in ((100, 40, (1, 31, 32, 33, 65)), (16192, 768, (1, 40))):
        X = rng.standard_normal((n + 3, max(widths)))
        for kind in ("srht", "sparse"):
            om = make_sketch(kind, ell, n, 2, s=4)
            for op, rows in ((om, X[3:]), (EmbeddedSketch(3, om), X)):
                for dtype in (np.float64, np.float32, np.float16):
                    for k in widths:
                        block = op.apply(rows[:, :k], dtype=dtype)
                        cols = np.stack([op.apply(rows[:, j], dtype=dtype)
                                         for j in range(k)], axis=1)
                        assert np.array_equal(block, cols), (n, kind, op, dtype, k)


# one of every operator, all taking 20 coordinates
_OPERATORS = [
    GaussianSketch(8, 20, 1),
    SRHTSketch(8, 20, 1),
    SparseSignSketch(8, 20, 1, s=4),
    IdentitySketch(20),
    MatrixSketch(np.ones((8, 20))),
    ColumnScaledSketch(SRHTSketch(8, 20, 1), np.full(20, 2.0), 4, None),
    EmbeddedSketch(3, SRHTSketch(8, 17, 1)),
]


@pytest.mark.parametrize("op", _OPERATORS, ids=lambda op: type(op).__name__)
def test_zero_width_apply(op):
    # trim_rhqr_left sketches W[:, 1:], which has no columns when m = 1
    ell = op.shape[0]
    for dtype in (np.float64, np.float32, np.float16):
        Y = op.apply(np.zeros((20, 0), dtype=dtype), dtype=dtype)
        assert Y.shape == (ell, 0) and Y.dtype == dtype


@pytest.mark.parametrize("op", _OPERATORS, ids=lambda op: type(op).__name__)
def test_apply_returns_its_dtype(op):
    # apply(X, dtype) returns dtype for an X held in dtype, one column or a
    # block; a plain operator returns dtype for any X
    X = _exact_inputs(20, 3)
    for dtype in (np.float64, np.float32, np.float16):
        for Xd in (X.astype(dtype), X[:, 0].astype(dtype)):
            assert op.apply(Xd, dtype=dtype).dtype == dtype
        if not isinstance(op, EmbeddedSketch):
            assert op.apply(X, dtype=dtype).dtype == dtype


def test_embedded_apply_keeps_a_wider_head():
    # the top block is a bitwise copy of X's rows, so a float64 X under a
    # half sketch comes back float64 with its head as given
    psi = EmbeddedSketch(3, SRHTSketch(8, 17, 1))
    X = np.cos(np.arange(60.0)).reshape(20, 3) / 3.0
    Y = psi.apply(X, dtype=np.float16)
    assert Y.dtype == np.float64
    assert np.array_equal(Y[:3], X[:3])
    assert np.array_equal(Y[3:], psi.omega.apply(X[3:], dtype=np.float16))


def test_low_precision_apply_is_representable(rng):
    X = round_to(rng.standard_normal((24, 2)), "half")
    for op in (make_sketch("srht", 8, 24, 1), make_sketch("gauss", 8, 24, 1),
               make_sketch("sparse", 8, 24, 1)):
        Y = op.apply(X, dtype=np.float16)
        assert np.array_equal(round_to(Y, "half"), Y)
    psi = EmbeddedSketch(4, make_sketch("srht", 8, 20, 1))
    Y = psi.apply(X, dtype=np.float16)
    assert np.array_equal(Y[:4], X[:4])


def test_column_scaled_wrapper(rng):
    base = GaussianSketch(12, 9, seed=8)
    scales = np.ones(9)
    scales[:4] = [2.0, 0.5, 1.0, 4.0]
    op = ColumnScaledSketch(base, scales, 4, unit_column_sketches=None)
    X = rng.standard_normal((9, 2))
    assert np.allclose(op.apply(X), base.apply(X * scales[:, None]), atol=1e-14)


def test_check_embedding():
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.standard_normal((60, 6)))[0]
    assert check_embedding(IdentitySketch(60), Q) < 1e-12
    eps = check_embedding(GaussianSketch(48, 60, seed=0), Q)
    assert 0.0 < eps < 0.8
    with pytest.raises(ValueError):
        check_embedding(IdentitySketch(60), rng.standard_normal((60, 6)))


def test_identity_and_embedded_dense_forms(rng):
    om = SRHTSketch(6, 10, seed=13)
    psi = EmbeddedSketch(2, om)
    P = dense_embedded_matrix(psi)
    x = rng.standard_normal(12)
    assert np.allclose(P @ x, psi.apply(x), atol=1e-13)
    assert np.allclose(P[:2, :2], np.eye(2))
    assert np.allclose(P[2:, :2], 0.0)
