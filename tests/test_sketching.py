import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chi2, chi2_contingency

from sketchqr import sketching
from sketchqr.precision import round_to
from sketchqr.sketching import (
    ColumnScaledSketch,
    EmbeddedSketch,
    GaussianSketch,
    IdentitySketch,
    SRHTSketch,
    SparseSignSketch,
    _split_half,
    check_embedding,
    fwht,
    make_sketch,
)
from oracles import (
    MatrixSketch,
    dense_embedded_matrix,
    dense_operator_matrix,
    fwht_stack_reference,
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
def test_fwht_bitwise_matches_stack_reference(p, k, dtype, layout, seed):
    # at most 2**21 entries, since the reference keeps several copies alive
    p = min(p, (2 ** 21 // k).bit_length() - 1)
    X = np.random.default_rng(seed).standard_normal((1 << p, k)).astype(dtype)
    x = {"1d": X[:, 0], "C": X, "F": np.asfortranarray(X), "reversed": X[::-1, ::-1]}[layout]
    before = x.copy()
    out = fwht(x)
    ref = fwht_stack_reference(x)
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.flags.c_contiguous
    assert np.array_equal(out, ref)
    assert np.array_equal(np.signbit(out), np.signbit(ref))
    assert np.array_equal(x, before)


def _half_inputs(case, k):
    rng = np.random.default_rng(k)
    if case == "ties":
        # halves 1 and 2**-11 of both signs: sums such as 1 + 2**-11 lie
        # halfway between two halves and must round to even
        vals = np.array([1.0, -1.0, 2.0 ** -11, -(2.0 ** -11)])
        return [rng.choice(vals, (2048, k)).astype(np.float16)]
    if case == "norm_edge":
        # positive columns, so row 0 reaches the 1-norm, scaled to float64
        # 1-norms just below and just above the split path's bound 2**15
        X = np.abs(rng.standard_normal((2048, k)))
        return [(X * (t / X.sum(axis=0))).astype(np.float16)
                for t in (2.0 ** 15 - 64, 2.0 ** 15 + 64)]
    return [(rng.standard_normal((2048, k)) * case).astype(np.float16)]


@pytest.mark.parametrize("case", [1e-6, 1.0, 3000.0, "ties", "norm_edge"])
@pytest.mark.parametrize("k", [1, 8, 150])
def test_fwht_half_path_matches_native_float16(case, k, monkeypatch):
    # float16 butterflies run in float32 and round each stage to half, by
    # the split or, past its bound, by a cast; the native float16
    # butterflies of the reference must agree bit for bit, through half
    # subnormals (1e-6), ties and overflow to inf and NaN (3000)
    split = []

    def counted(x, scratch):
        split.append(x.shape)
        return _split_half(x, scratch)

    monkeypatch.setattr(sketching, "_split_half", counted)
    paths = []
    for X in _half_inputs(case, k):
        split.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            out = fwht(X)
            ref = fwht_stack_reference(X)
        assert out.dtype == np.float16
        assert np.array_equal(out.view(np.uint16), ref.view(np.uint16))
        norms = np.abs(X.astype(np.float64)).sum(axis=0)
        assert bool(split) == bool(np.all(norms <= 2.0 ** 15))
        paths.append(bool(split))
        if case == 3000.0:
            assert np.isnan(ref).any() and np.isinf(ref).any()
    assert paths == ([True, False] if case == "norm_edge" else [case != 3000.0])


@pytest.mark.parametrize("binade", ["subnormal", "one", "top"])
def test_split_rounding_matches_cast(binade):
    # every float32 of the range, in both signs: the multiples of 2**-24
    # below 2**-14 (half's subnormals), [1, 2] and [32768, 65504]
    if binade == "subnormal":
        x = np.arange(1 << 10, dtype=np.float32) * np.float32(2.0 ** -24)
    else:
        a, b = {"one": (1.0, 2.0), "top": (32768.0, 65504.0)}[binade]
        bits = np.arange(np.float32(a).view(np.uint32), np.float32(b).view(np.uint32) + 1)
        x = bits.astype(np.uint32).view(np.float32)
    scratch = np.empty_like(x)
    for sign in (1, -1):
        v = x * np.float32(sign)
        got = v.copy()
        _split_half(got, scratch)
        ref = v.astype(np.float16).astype(np.float32)
        assert np.array_equal(got.view(np.uint32), ref.view(np.uint32))


def _exact_inputs(n, k):
    # integer arithmetic and one correctly rounded division: no libm call,
    # so the same bits on every machine
    i = np.arange(n)[:, None]
    j = np.arange(k)[None, :]
    return ((i * 7919 + j * 104729) % 2003 - 1001) / 1001.0


def _digest(Y):
    data = np.ascontiguousarray(Y, dtype=np.float64).tobytes()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


# Digests recorded with the stack-based transform (fwht_stack_reference).
# Scaling, sign flips, the butterflies and the gather are elementwise IEEE
# operations with no BLAS call, so they hold on any machine; a change to
# the transform's arithmetic or stage order breaks them.
# (ell, n, seed, block columns, dtype[, input scale]) -> (vector digest,
# block digest); the scale is a power of two, so scaled inputs are exact
SRHT_DIGESTS = {
    (24, 100, 5, 3, "float16"): (
        "729ea7177b5a7f8b591b299410ab2585",
        "87581614ee864d60e84cd85145bb8b1c",
    ),
    (24, 100, 5, 3, "float32"): (
        "a146367c858cf5a77d5b633d27eef748",
        "2c881123d7689a09ad00c0217ca9f982",
    ),
    (24, 100, 5, 3, "float64"): (
        "bc9aa567009a9bba094fe5c0fce0894b",
        "b14f4b46a7a419f487abdc40cba92b2c",
    ),
    (64, 1000, 3, 7, "float16"): (
        "e726d9e8eb923511767ab61d1e260bfd",
        "b9d9875183ddd055e0eba250d7c2938f",
    ),
    (64, 1000, 3, 7, "float32"): (
        "72a904076cc2f59fab51b751bac29672",
        "585043d32ae21430ae953750477b0dc1",
    ),
    (64, 1000, 3, 7, "float64"): (
        "c7db466a71d6d0f577a0070700f43c94",
        "7128375eacf651ee6a565ef485b6af07",
    ),
    (200, 3000, 11, 70, "float16"): (
        "4be1e0149f229b32b418991a9f8d12bd",
        "77467ee578a89a9ffb1f866b9612c792",
    ),
    (200, 3000, 11, 70, "float32"): (
        "3a76866fefcc47ebbbf71076987aa9d3",
        "94856f7dfe0eedb3428290d7658ab637",
    ),
    (200, 3000, 11, 70, "float64"): (
        "7a1f0e6c7b2ade96800c72bfc11c8e4b",
        "52c6b34a8ddecfa7d1f806cb2e61656e",
    ),
    (120, 4096, 7, 2, "float16"): (
        "8478f5089d77e5116f4558c505181225",
        "1f419bcc816872b917364c52b5597228",
    ),
    (120, 4096, 7, 2, "float32"): (
        "f546739728a228d9362aa2cc3e5187de",
        "29bd6e15208411914e676f3159f88f65",
    ),
    (120, 4096, 7, 2, "float64"): (
        "cba76b72a60fade561c9ef20a6182c5e",
        "2e981bbd5dc7fa212bb87eafbe9c9f1a",
    ),
    # the tall size, n_pad 16384; the 40-column block spans two chunks.
    # Unscaled, the signed-scaled half columns have 1-norms up to 37420,
    # past the split's bound 2**15, so half runs the cast fallback; halved
    # inputs (at most 18710) run the split.
    (768, 16192, 17, 40, "float16"): (
        "90c0c3682000a631373137c6919a8c59",
        "47ed85be5ce08c59664b33178395a9f7",
    ),
    (768, 16192, 17, 40, "float16", 0.5): (
        "cb6ab07f4dc52b2f1600ec9909bee001",
        "27e9332e10c3b55c360c185848c93f8a",
    ),
    (768, 16192, 17, 40, "float32"): (
        "732521a22ecda832885baf51a7377d4c",
        "ae532e87c0b18bab0a25f56556fe100b",
    ),
    (768, 16192, 17, 40, "float64"): (
        "313f6ed880b4435de525dfba39f6f3c5",
        "acdc7f7e5eff27ab55cf24b40fd15c05",
    ),
}
# dtype -> digest of [I_20; SRHT(90, 1500, seed 13)] applied to 20 columns
EMBEDDED_DIGESTS = {
    "float16": "5634af61e4b5cbd99bded1ea2fba6243",
    "float32": "89a87a1d88cf9963821bcda0797c8b2e",
    "float64": "216f0d46f0de5eb881a196319b517d69",
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
    # sketches: SRHT (chunked butterflies) and sparse sign (per-column CSC
    # products) must give the same bits, around the chunk width too
    n = 100
    X = rng.standard_normal((n + 3, 65))
    for kind in ("srht", "sparse"):
        om = make_sketch(kind, 40, n, 2, s=4)
        for op, rows in ((om, X[3:]), (EmbeddedSketch(3, om), X)):
            for dtype in (np.float64, np.float32, np.float16):
                for k in (1, 31, 32, 33, 65):
                    block = op.apply(rows[:, :k], dtype=dtype)
                    cols = np.stack([op.apply(rows[:, j], dtype=dtype) for j in range(k)],
                                    axis=1)
                    assert np.array_equal(block, cols), (kind, op, dtype, k)


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
