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
    factorization_errors,
    low_storage,
    matmul_in,
    orthogonality_error,
    right_tri_solve,
    sign,
    upper_tri_solve,
)
from sketchqr.rhqr import rec_rhqr, rh_vector, rhqr_block, rhqr_left, rhqr_right
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
    p = PrecisionPolicy.mixed()
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
    assert np.allclose(right_tri_solve(B.T, R) @ R, B.T, atol=1e-12)


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
    y16 = right_tri_solve(B, R, policy=half)
    assert np.allclose(y16 @ R, B, atol=0.1)


def test_cond_number():
    assert cond_number(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-14)
    assert cond_number(np.zeros((4, 2))) == np.inf
    assert cond_number(np.diag([1.0, 0.0])) == np.inf


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


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 40),
    c=st.integers(0, 7),
    cols=st.sampled_from([None, 1, 3]),
    data=st.data(),
)
@example(n=3, c=0, cols=None, data=None)
@example(n=1, c=1, cols=None, data=None)
@example(n=2, c=2, cols=3, data=None)
def test_half_matmul_is_numpy_float16_matmul(n, c, cols, data):
    """matmul_in(A, B, float16) against numpy's float16 A @ B, bit for bit.

    This pins the numpy build: the bits rest on numpy's half matmul loop
    (float32 products summed in order from +0, one rounding to half).
    Covered: c = 0 and 1, a vector and a multi-column B (the panel update),
    subnormals, infinities, NaN, overflow of the float32 sum past the half
    range, and a -0 product, which a sum seeded with its first product
    would return as -0.  A is given both as float16 and in low_storage's
    float32 layout.
    """
    shape_b = (c,) if cols is None else (c, cols)
    if data is None:
        A = np.full((n, c), -1.0, dtype=np.float16)
        B = np.zeros(shape_b, dtype=np.float16)
        if c == 2:
            A[:] = [300.0, 300.0]
            B[:] = [[300.0, 2.0 ** -24, np.inf], [300.0, 2.0 ** -14, np.nan]]
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


@pytest.mark.parametrize("tag", ["double", "single", "mixed", "half"])
def test_sweeps_return_c_contiguous_float64(tag):
    # the golden digests hash ascontiguousarray(x), so they cannot see a
    # layout; a transposed low_storage store that leaked out would move
    # thin_q's gemm bits
    policy = policy_from_tag(tag)
    W = gen_cmatrix(96, 10)
    om_e = SRHTSketch(40, 86, 5)
    om = SRHTSketch(40, 96, 6)
    A = np.diag(np.arange(1.0, 97.0))
    b = np.cos(np.arange(96.0))
    hq = householder_qr(W, policy=policy)
    outputs = {
        "rhqr_left": rhqr_left(W, om_e, policy=policy).U,
        "rhqr_block": rhqr_block(W, om_e, block_size=4, policy=policy).U,
        "rhqr_right": rhqr_right(W, om_e, policy=policy).U,
        "rec_rhqr": rec_rhqr(W, om_e, policy=policy).U,
        "trim_rhqr_left": trim_rhqr_left(W, SRHTSketch(8, 96, 7), policy=policy).U,
        "trim_rhqr_right": trim_rhqr_right(W, SRHTSketch(8, 96, 7), policy=policy).U,
        "householder_qr.U": hq.aux["U"],
        "householder_qr.Q": hq.Q,
        "rhqr_arnoldi": rhqr_arnoldi(A, b, None, 8, SRHTSketch(36, 87, 8), policy=policy).U,
        "cgs": cgs(W, policy=policy).Q,
        "mgs": mgs(W, policy=policy).Q,
        "rgs": rgs(W, om, policy=policy).Q,
        "blas2_rgs": blas2_rgs(W, om, policy=policy).Q,
        "rand_cholesky_qr": rand_cholesky_qr(W, om, policy=policy).Q,
        "rgs_arnoldi": rgs_arnoldi(A, b, None, 8, om, policy=policy)[0],
    }
    for name, X in outputs.items():
        assert X.dtype == np.float64, name
        assert X.flags.c_contiguous, name
