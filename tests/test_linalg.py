import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sketchqr.precision import (
    DOUBLE,
    HALF,
    SINGLE,
    PrecisionPolicy,
    PrecisionRangeError,
    UNIT_ROUNDOFF,
    policy_from_tag,
    round_to,
)
from sketchqr.baselines import (
    blas2_rgs,
    cgs,
    householder_qr,
    mgs,
    rand_cholesky_qr,
    rgs,
)
from sketchqr.experiments import gen_cmatrix
from sketchqr.krylov import rgs_arnoldi, rhqr_arnoldi
from sketchqr.linalg import (
    BreakdownError,
    SingularFactorError,
    cond_number,
    elementwise_in,
    factor_input,
    factorization_errors,
    low_storage,
    matmul_in,
    orthogonality_error,
    right_tri_solve,
    sign,
    upper_tri_solve,
)
from sketchqr.rhqr import rec_rhqr, rh_vector, rhqr_block, rhqr_left, rhqr_right, thin_q
from sketchqr.sketching import EmbeddedSketch, GaussianSketch, IdentitySketch, SRHTSketch
from sketchqr.trim import (
    normalize_leading_columns,
    trim_rh_vector,
    trim_rhqr_left,
    trim_rhqr_right,
)
from oracles import jacobi_singular_values


def test_round_to_half_known_value():
    # 1.1 = 1126.4/1024, nearest float16 is 1126/1024
    assert round_to(1.1, "half") == 1.099609375


def test_round_to_nearest_even_ties():
    # spacing is 2 in [2048, 4096); ties go to the even significand
    assert round_to(2049.0, "half") == 2048.0
    assert round_to(2051.0, "half") == 2052.0


def test_round_to_subnormals_preserved():
    x = 2.0 ** -24  # subnormal in float16, representable exactly
    assert round_to(x, "half") == x
    assert round_to(2.0 ** -26, "half") == 0.0  # below half of smallest subnormal


def test_round_to_overflow_raises():
    with pytest.raises(PrecisionRangeError):
        round_to(70000.0, "half")
    with pytest.raises(PrecisionRangeError):
        round_to(1e39, "single")
    # infinities pass through untouched
    assert np.isposinf(round_to(np.inf, "half"))
    with pytest.raises(ValueError, match="^unknown precision 'quad'"):
        round_to(1.0, "quad")


def test_round_to_names_the_worst_finite_overflow_and_passes_inf_and_nan():
    # the message names the largest finite value past the range, whatever
    # infinities or NaNs sit beside it; those alone pass through unchanged
    x = np.array([1.0, -80000.0, np.inf, 70000.0, np.nan])
    with pytest.raises(PrecisionRangeError, match=r"^value 80000 overflows half range$"):
        round_to(x, "half")
    r = round_to(np.array([np.inf, -np.inf, np.nan, 2049.0]), "half")
    assert r.dtype == np.float16 and np.isposinf(r[0]) and np.isneginf(r[1])
    assert np.isnan(r[2]) and r[3] == 2048.0


def test_round_to_reads_integers_as_float64():
    r = round_to(np.array([1, 2049, -3]), "half")
    assert r.dtype == np.float16 and r.tolist() == [1.0, 2048.0, -3.0]


@given(st.floats(allow_nan=False, allow_infinity=False, width=32),
       st.sampled_from(["half", "single", "double"]))
def test_round_to_idempotent(x, tag):
    try:
        once = round_to(x, tag)
    except PrecisionRangeError:
        return
    assert round_to(once, tag) == once


@given(st.floats(min_value=-60000, max_value=60000))
def test_round_to_half_matches_native(x):
    assert round_to(x, "half") == float(np.float16(x))


def test_unit_roundoffs():
    assert UNIT_ROUNDOFF[HALF] == 2.0 ** -11
    assert UNIT_ROUNDOFF[SINGLE] == 2.0 ** -24
    assert UNIT_ROUNDOFF[DOUBLE] == 2.0 ** -53


def test_policy_validation():
    p = policy_from_tag("mixed")
    assert p.high == DOUBLE and p.low == HALF
    p = PrecisionPolicy.uniform("single")
    assert p.high == SINGLE and p.low == SINGLE
    with pytest.raises(ValueError):
        PrecisionPolicy(high="half", low="double")
    with pytest.raises(ValueError):
        policy_from_tag("quad")
    assert policy_from_tag("mixed").low == HALF


def test_upper_tri_solve_known():
    R = np.array([[2.0, 1.0], [0.0, 4.0]])
    x = upper_tri_solve(R, np.array([3.0, 8.0]))
    assert np.allclose(x, [0.5, 2.0], rtol=0, atol=1e-15)


def test_upper_tri_solve_singular():
    R = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(SingularFactorError):
        upper_tri_solve(R, np.ones(2))
    R[1, 1] = 1e-310  # subnormal diagonal counts as singular
    with pytest.raises(SingularFactorError):
        upper_tri_solve(R, np.ones(2))


def test_tri_solves_roundtrip(rng):
    n = 12
    R = np.triu(rng.standard_normal((n, n))) + 3 * np.eye(n)
    B = rng.standard_normal((n, 4))
    assert np.allclose(R @ upper_tri_solve(R, B), B, atol=1e-12)
    assert np.allclose(right_tri_solve(B.T.copy(), R) @ R, B.T, atol=1e-12)


def test_tri_solve_half_policy(rng):
    half = PrecisionPolicy.uniform("half")
    n = 6
    R = np.triu(round_to(rng.standard_normal((n, n)), "half")) + 2 * np.eye(n)
    B = round_to(rng.standard_normal(n), "half")
    x16 = upper_tri_solve(R, B, policy=half)
    x64 = upper_tri_solve(R, B)
    assert round_to(x16, "half").tolist() == x16.tolist()
    assert np.allclose(x16, x64, atol=2e-2)
    # identity system is exact in any precision
    assert np.array_equal(upper_tri_solve(np.eye(n), B, policy=half), B)
    y16 = right_tri_solve(B.copy(), R, policy=half)
    assert np.allclose(y16 @ R, B, atol=0.1)


def test_cond_number():
    assert cond_number(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-14)
    assert cond_number(np.zeros((4, 2))) == np.inf
    assert cond_number(np.diag([1.0, 0.0])) == np.inf
    assert cond_number(np.array([[1.0, np.nan], [0.0, 1.0]])) == np.inf


def test_right_tri_solve_refuses_a_b_it_cannot_overwrite():
    R = np.eye(3)
    fixed = np.ones((2, 3))
    fixed.flags.writeable = False
    for B in (fixed, np.ones((3, 2)).T):
        with pytest.raises(ValueError, match="writable C-contiguous B"):
            right_tri_solve(B, R)


def test_cond_number_against_jacobi(rng):
    A = rng.standard_normal((20, 8)) @ np.diag(10.0 ** np.arange(8) ** 0.5)
    sv = jacobi_singular_values(A)
    assert cond_number(A) == pytest.approx(sv[0] / sv[-1], rel=1e-10)


def test_factorization_errors_exact(rng):
    W = rng.standard_normal((30, 6))
    Q, R = np.linalg.qr(W)
    errs = factorization_errors(W, Q, R)
    assert errs.fro_rel_err < 1e-15
    assert errs.max_col_rel_err < 1e-14
    assert errs.flagged_columns == ()


def test_factorization_errors_injected_perturbation(rng):
    W = rng.standard_normal((100, 10))
    Q, R = np.linalg.qr(W)
    W2 = W.copy()
    bump = rng.standard_normal(100)
    bump /= np.linalg.norm(bump)
    W2[:, 3] += 1e-6 * np.linalg.norm(W[:, 3]) * bump
    err = factorization_errors(W2, Q, R).max_col_rel_err
    assert 0.9e-6 <= err <= 1.1e-6


def test_factorization_errors_zero_column(rng):
    W = rng.standard_normal((20, 4))
    W[:, 2] = 0.0
    Q, R = np.linalg.qr(W)
    R[:, 2] = 0.0
    errs = factorization_errors(W, Q, R)
    assert errs.flagged_columns == (2,)
    assert errs.fro_rel_err < 1e-15


def test_orthogonality_error_known():
    assert orthogonality_error(np.array([[1.0, 1.0], [0.0, 1.0]])) == pytest.approx(
        np.sqrt(3.0), rel=1e-15
    )
    Q = np.linalg.qr(np.random.default_rng(7).standard_normal((40, 10)))[0]
    assert orthogonality_error(Q) < 1e-14


def test_sign_convention():
    assert sign(0.0) == 1.0
    assert sign(-0.0) == 1.0
    assert sign(3.5) == 1.0
    assert sign(-1e-300) == -1.0


def test_breakdown_error_carries_column():
    psi = EmbeddedSketch(2, IdentitySketch(2))
    w = np.array([1.0, 0.0, 0.0, 0.0])
    A = np.zeros((6, 3))
    A[0] = 1.0
    Wz = np.zeros((32, 3))
    Wz[0, 0] = Wz[1, 1] = 1.0
    om = normalize_leading_columns(GaussianSketch(4, 6, 1), 3)
    # a zero column stops rec_rhqr and rand_cholesky_qr where householder_qr
    # stops, although LAPACK alone would pass it with tau = 0
    W0 = np.random.default_rng(2).standard_normal((40, 5))
    W0[:, 2] = 0.0
    cases = [
        (lambda: rh_vector(w, psi.apply(w), 2), 2, "tail_annihilated"),
        (lambda: trim_rh_vector(np.zeros(4), om, 3), 3, "tail_annihilated"),
        (lambda: householder_qr(A), 2, "dependent_column"),
        (lambda: rec_rhqr(W0, GaussianSketch(12, 35, 7)), 3, "dependent_column"),
        (lambda: rand_cholesky_qr(W0, GaussianSketch(12, 40, 7)), 3, "dependent_column"),
        (lambda: rgs(Wz, IdentitySketch(32)), 3, "zero_pivot"),
        (lambda: blas2_rgs(Wz, IdentitySketch(32)), 3, "zero_pivot"),
        (lambda: cgs(Wz), 3, "zero_pivot"),
    ]
    for run, column, reason in cases:
        with pytest.raises(BreakdownError, match=f"column {column}") as info:
            run()
        assert info.value.column == column
        assert info.value.reason == reason
    with pytest.raises(ValueError, match="reason"):
        BreakdownError("no such reason", column=1, reason="unknown")


def _half_bits(x):
    # which NaN survives where two NaNs meet is up to the loop that adds
    # them (numpy's own scalar and vector loops differ), so every NaN reads
    # as one pattern; every other value is compared bit for bit
    x = np.asarray(x, dtype=np.float16)
    return np.where(np.isnan(x), np.uint16(0x7E00), x.view(np.uint16))


_halves = st.floats(width=16, allow_nan=True, allow_infinity=True)


def _spread_halves(seed, shape):
    # dense halves with exponents from 2^-12 to 2^12: a long sum over k
    # then rounds at many scales, so a change of order shows in the bits
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * 2.0 ** rng.integers(-12, 13, shape)).astype(np.float16)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 40),
    c=st.integers(0, 300),
    cols=st.sampled_from([None, 1, 3]),
    data=st.data(),
)
@example(n=3, c=0, cols=None, data=None)
@example(n=1, c=1, cols=None, data=None)
@example(n=2, c=2, cols=3, data=None)
@example(n=1, c=300, cols=None, data=None)
@example(n=1, c=300, cols=1, data=None)
def test_half_matmul_is_numpy_float16_matmul(n, c, cols, data):
    """matmul_in(A, B, float16) against numpy's float16 A @ B, bit for bit.

    This pins the numpy build: the bits rest on numpy's half matmul loop
    (float32 products summed in order from +0, one rounding to half).
    Covered: c = 0, 1 and up to 300, one row and many, a vector and a
    multi-column B (the panel update), subnormals, infinities, NaN,
    overflow of the float32 sum past the half range, a -0 product, which a
    sum seeded with its first product would return as -0, and a one-row
    sum that comes out another way when it is not added in order.  A is
    given both as float16 and in low_storage's float32 layout.
    """
    shape_b = (c,) if cols is None else (c, cols)
    if data is None:
        A = np.full((n, c), -1.0, dtype=np.float16)
        B = np.zeros(shape_b, dtype=np.float16)
        if c == 2:
            A[:] = [300.0, 300.0]
            B[:] = [[300.0, 2.0 ** -24, np.inf], [300.0, 2.0 ** -14, np.nan]]
        elif c > 2:
            # 2049 is a half tie, kept by an in-order float32 sum (each
            # 2^-13 after it ties to even and is lost), so the result is
            # 2048; a sum that adds the 2^-13s together first gives 2050
            A[:] = 1.0
            B[:] = 2.0 ** -13
            B[0], B[1] = 2048.0, 1.0
    elif data.draw(st.booleans()):
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        A, B = _spread_halves(seed, (n, c)), _spread_halves(seed + 1, shape_b)
    else:
        A = data.draw(arrays(np.float16, (n, c), elements=_halves))
        B = data.draw(arrays(np.float16, shape_b, elements=_halves))
    with np.errstate(all="ignore"):
        ref = A @ B
        stored = low_storage(n, c, np.float16)
        stored[...] = A
        for a in (A, stored):
            out = matmul_in(a, B, np.float16)
            assert out.dtype == np.float16 and out.shape == ref.shape
            assert np.array_equal(_half_bits(out), _half_bits(ref))
    if data is None and c == 1:
        assert _half_bits(ref)[0] == 0  # +0, not -0
    if data is None and c > 2:
        assert np.all(ref == 2048.0)


def _fixed_halves():
    # 256 halves: zero, the smallest subnormal, the largest subnormal, the
    # smallest normal, one, the largest half and infinity, each with both
    # signs, NaN, then seeded bit patterns
    edges = np.array([0.0, 2.0 ** -24, 2.0 ** -14 - 2.0 ** -24, 2.0 ** -14, 1.0, 65504.0, np.inf],
                     dtype=np.float16)
    fixed = np.concatenate([edges, -edges, [np.float16(np.nan)]])
    bits = np.random.default_rng(35).integers(0, 2 ** 16, 256 - fixed.size, dtype=np.uint16)
    return np.concatenate([fixed, bits.view(np.float16)])


@pytest.mark.parametrize("op", [np.multiply, np.divide], ids=lambda op: op.__name__)
def test_half_elementwise_is_numpy_float16_op(op):
    """elementwise_in(op, a, b, float16) against numpy's float16 op on every
    half a and 256 fixed halves b, bit for bit but the sign of a NaN: as a
    new float16 array, into a float16 `out` that is either operand (trim's
    leading-column scaling writes into a), and, for the product, with b
    held as float32 into a float32 `out` (the SRHT's scaled input)."""
    every = np.arange(2 ** 16, dtype=np.uint16).view(np.float16)[:, None]
    fixed = _fixed_halves()
    assert fixed.size == 256 and np.isnan(fixed).any()
    with np.errstate(all="ignore"):
        for b in np.split(fixed[None, :], 8, axis=1):
            a = np.broadcast_to(every, (every.shape[0], b.shape[1]))
            ref = _half_bits(op(a, b))
            out = elementwise_in(op, a, b, np.float16)
            assert out.dtype == np.float16 and np.array_equal(_half_bits(out), ref)
            buf = np.repeat(b, a.shape[0], axis=0)
            assert elementwise_in(op, a, buf, np.float16, out=buf) is buf
            assert np.array_equal(_half_bits(buf), ref)
            buf = a.copy()
            assert elementwise_in(op, buf, b, np.float16, out=buf) is buf
            assert np.array_equal(_half_bits(buf), ref)
            if op is np.multiply:
                # held as float32, the values must be halves already
                held = np.empty(ref.shape, dtype=np.float32)
                elementwise_in(op, a, b.astype(np.float32), np.float16, out=held)
                assert np.array_equal(held, out.astype(np.float32), equal_nan=True)
                assert np.array_equal(_half_bits(held), ref)


def test_elementwise_in_other_formats_is_the_plain_op():
    # float32 and float64 round both operands to dtype and run numpy's op
    a = np.linspace(-3.0, 3.0, 7)
    b = np.float64(1.0 / 3.0)
    for dtype in (np.float32, np.float64):
        out = elementwise_in(np.divide, a, b, dtype)
        assert out.dtype == dtype
        assert np.array_equal(out, a.astype(dtype) / dtype(b))



# the store-backed n-dimensional fields, handed back as their column-major
# stores (linalg.low_storage), and the left sweeps' S, column-major for
# their paired coefficient product; householder_qr's aux["U"] is a
# C-contiguous copy, and H is a strided view of the Arnoldi R.  Every other
# field is C-contiguous
_COLUMN_MAJOR = {"rhqr_left.U", "rhqr_block.U", "rhqr_right.U", "trim_rhqr_left.U",
                 "trim_rhqr_right.U", "rhqr_arnoldi.U", "cgs.Q", "mgs.Q", "rgs.Q",
                 "blas2_rgs.Q", "rgs_arnoldi.Q", "rhqr_left.S", "rhqr_block.S"}
_STRIDED = {"rhqr_arnoldi.H", "rgs_arnoldi.H"}


def _array_fields(name, out):
    if dataclasses.is_dataclass(out):
        items = [(f.name, getattr(out, f.name)) for f in dataclasses.fields(out)]
    elif hasattr(out, "aux"):
        items = [("Q", out.Q), ("R", out.R)] + [(f"aux.{k}", v) for k, v in out.aux.items()]
    else:
        items = list(zip(("Q", "H"), out))
    return [(f"{name}.{k}", v) for k, v in items if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("tag", ["double", "single", "mixed", "half"])
def test_entry_points_return_float64_in_one_layout(tag):
    # every array an entry point returns is float64, whatever precision it
    # ran in, and in the same layout in every precision: a product over a
    # returned array (thin_q's gemm, GMRES's Q y) reads it as the store it
    # came from.  The golden digests hash ascontiguousarray(x), so they
    # cannot see a layout
    policy = policy_from_tag(tag)
    W = gen_cmatrix(96, 10)
    om_e = SRHTSketch(40, 86, 5)
    om = SRHTSketch(40, 96, 6)
    A = np.diag(np.arange(1.0, 97.0))
    b = np.cos(np.arange(96.0))
    outputs = {
        "rhqr_left": rhqr_left(W, om_e, policy=policy),
        "rhqr_block": rhqr_block(W, om_e, block_size=4, policy=policy),
        "rhqr_right": rhqr_right(W, om_e, policy=policy),
        "rec_rhqr": rec_rhqr(W, om_e, policy=policy),
        "trim_rhqr_left": trim_rhqr_left(W, SRHTSketch(8, 96, 7), policy=policy),
        "trim_rhqr_right": trim_rhqr_right(W, SRHTSketch(8, 96, 7), policy=policy),
        "householder_qr": householder_qr(W, policy=policy),
        "rhqr_arnoldi": rhqr_arnoldi(A, b, None, 8, SRHTSketch(36, 87, 8), policy=policy),
        "cgs": cgs(W, policy=policy),
        "mgs": mgs(W, policy=policy),
        "rgs": rgs(W, om, policy=policy),
        "blas2_rgs": blas2_rgs(W, om, policy=policy),
        "rand_cholesky_qr": rand_cholesky_qr(W, om, policy=policy),
        "rgs_arnoldi": rgs_arnoldi(A, b, None, 8, om, policy=policy),
    }
    fields = dict(f for name, out in outputs.items() for f in _array_fields(name, out))
    assert _COLUMN_MAJOR | _STRIDED | {"rhqr_left.R", "trim_rhqr_left.E", "householder_qr.aux.U",
                                       "blas2_rgs.aux.T"} <= set(fields)
    for name, X in fields.items():
        assert X.dtype == np.float64, name
        assert X.shape[1] > 1, name
        if name in _COLUMN_MAJOR:
            assert X.flags.f_contiguous and not X.flags.c_contiguous, name
        elif name in _STRIDED:
            assert not (X.flags.c_contiguous or X.flags.f_contiguous), name
        else:
            assert X.flags.c_contiguous, name


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_low_storage_is_column_major(dtype):
    # each column is contiguous; a half store is held in float32
    U = low_storage(7, 3, dtype)
    assert U.shape == (7, 3) and U.flags.f_contiguous and not U.flags.c_contiguous
    assert U.dtype == (np.float32 if dtype == np.float16 else dtype)
    assert U.flags.writeable and not U.any()


def test_factor_input_reads_a_matching_input_in_place(rng):
    # an input already C-contiguous in policy.low's format is read in place,
    # read-only; anything else is rounded into a C-contiguous copy
    W = rng.standard_normal((40, 6))
    for tag in ("double", "single", "half"):
        policy = PrecisionPolicy.uniform(tag)
        Wt = round_to(W, tag)
        G = factor_input(Wt, policy)
        assert np.shares_memory(G, Wt) and not G.flags.writeable
        other = W.astype(np.float32) if tag == "double" else W
        for X in (Wt[::2], Wt[:, 1:], other):
            G = factor_input(X, policy)
            assert not np.shares_memory(G, X) and G.flags.c_contiguous
            assert G.dtype == policy.low_dtype
            assert np.array_equal(G, round_to(X, tag))


@pytest.mark.parametrize("tag", ["double", "single", "mixed"])
def test_entry_points_leave_their_input_unchanged(tag):
    # W is read in place where it is already in policy.low's format, so a
    # sweep that writes to it works on its own copy; a read-only W runs, with
    # the same bits.  The Arnoldi processes apply their operator in double,
    # so it is not rounded here
    policy = policy_from_tag(tag)
    om_e = SRHTSketch(40, 86, 5)
    om = SRHTSketch(40, 96, 6)
    om_t = SRHTSketch(8, 96, 7)
    om_a = SRHTSketch(36, 87, 8)
    calls = {
        "rhqr_left": lambda W: rhqr_left(W, om_e, policy=policy),
        "rhqr_block": lambda W: rhqr_block(W, om_e, block_size=4, policy=policy),
        "rhqr_right": lambda W: rhqr_right(W, om_e, policy=policy),
        "rec_rhqr": lambda W: rec_rhqr(W, om_e, policy=policy),
        "trim_rhqr_left": lambda W: trim_rhqr_left(W, om_t, policy=policy),
        "trim_rhqr_right": lambda W: trim_rhqr_right(W, om_t, policy=policy),
        "householder_qr": lambda W: householder_qr(W, policy=policy),
        "cgs": lambda W: cgs(W, policy=policy),
        "mgs": lambda W: mgs(W, policy=policy),
        "rgs": lambda W: rgs(W, om, policy=policy),
        "blas2_rgs": lambda W: blas2_rgs(W, om, policy=policy),
        "rand_cholesky_qr": lambda W: rand_cholesky_qr(W, om, policy=policy),
        "rhqr_arnoldi": lambda A: rhqr_arnoldi(A, A[:, 0], A[:, 1], 8, om_a, policy=policy),
        "rgs_arnoldi": lambda A: rgs_arnoldi(A, A[:, 0], A[:, 1], 8, om, policy=policy),
    }
    for name, call in calls.items():
        W = gen_cmatrix(96, 96 if name.endswith("arnoldi") else 10)
        want = _array_fields(name, call(W.copy()))
        for X in (W,) if name.endswith("arnoldi") else (W, round_to(W, policy.low)):
            for writeable in (True, False):
                X = X.copy()
                X.flags.writeable = writeable
                before = X.tobytes()
                got = _array_fields(name, call(X))
                assert X.tobytes() == before, name
                for (field, a), (_, b) in zip(want, got):
                    assert a.tobytes() == b.tobytes(), field


def test_lifting_and_baseline_solves_stay_within_their_memory_budget():
    # traced numpy allocations of one call on the desk input, in units of
    # one n x m float64 array: the inputs are read in place, the lifting
    # solves run in place, Q is formed without a negated copy of U, a half
    # U @ c needs O(n) bytes, not an m x n float32 block of products, and
    # rhqr_block sketches one panel at a time, not all of W up front
    n, m = 4096, 300
    W = gen_cmatrix(n, m)
    om_e = SRHTSketch(1200, n - m, 1)
    om = SRHTSketch(1200, n, 2)
    f = rhqr_left(W, om_e)
    Uh = low_storage(n, m, np.float16)
    Uh[...] = W.astype(np.float16)
    c = W[0].astype(np.float16)
    budget = {
        "half U @ c": (lambda: matmul_in(Uh, c, np.float16), 0.01),
        "rec_rhqr": (lambda: rec_rhqr(W, om_e), 2.5),
        "rand_cholesky_qr": (lambda: rand_cholesky_qr(W, om), 2.0),
        "householder_qr": (lambda: householder_qr(W), 2.5),
        "rhqr_left": (lambda: rhqr_left(W, om_e), 2.5),
        "rhqr_block": (lambda: rhqr_block(W, om_e, block_size=32), 2.0),
        "thin_q": (lambda: thin_q(f), 1.5),
    }
    for name, (call, most) in budget.items():
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / (n * m * 8) <= most, name
