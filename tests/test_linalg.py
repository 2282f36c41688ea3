import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from sketchqr.baselines import householder_qr, rgs
from sketchqr.linalg import (
    BreakdownError,
    SingularFactorError,
    cond_number,
    factorization_errors,
    orthogonality_error,
    right_tri_solve,
    sign,
    upper_tri_solve,
)
from sketchqr.rhqr import rh_vector
from sketchqr.sketching import EmbeddedSketch, GaussianSketch, IdentitySketch
from sketchqr.trim import normalize_leading_columns, trim_rh_vector
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
    cases = [
        (lambda: rh_vector(w, psi.apply(w), 2), 2),
        (lambda: trim_rh_vector(np.zeros(4), normalize_leading_columns(GaussianSketch(4, 6, 1), 3), 3), 3),
        (lambda: householder_qr(A), 2),
        (lambda: rgs(Wz, IdentitySketch(32)), 3),
    ]
    for run, column in cases:
        with pytest.raises(BreakdownError, match=f"column {column}") as info:
            run()
        assert info.value.column == column
