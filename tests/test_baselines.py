import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings, strategies as st

from sketchqr import baselines, krylov
from sketchqr.baselines import (
    _BasisQR,
    blas2_corrected_sketch,
    blas2_rgs,
    cgs,
    householder_qr,
    mgs,
    pivoted_householder_qr,
    pivoted_qr_lstsq,
    rand_cholesky_qr,
    rgs,
    sketch_qr,
)
from sketchqr.linalg import (
    SCALE_SQRT2,
    SCALE_UNIT,
    BreakdownError,
    cond_number,
    factorization_errors,
    orthogonality_error,
)
from sketchqr.precision import policy_from_tag, round_to
from sketchqr.rhqr import rec_rhqr, rhqr_left, sketch_q, thin_q
from sketchqr.krylov import rgs_gmres
from sketchqr.sketching import GaussianSketch, IdentitySketch, SRHTSketch
from oracles import CountingSketch, reflector_scalars


def oscillatory(n, m):
    """Columns become numerically dependent as the frequencies crowd."""
    x = np.arange(n) / (n - 1.0)
    mu = np.arange(m) / (m - 1.0)
    return np.sin(10.0 * (mu[None, :] + x[:, None])) / (np.cos(100.0 * (mu[None, :] - x[:, None])) + 1.1)


@pytest.fixture(scope="module")
def desk():
    return oscillatory(4096, 300)


def test_householder_identity_sign_rule():
    ref = householder_qr(np.eye(5))
    assert np.allclose(ref.R, -np.eye(5), atol=1e-15)


def test_householder_three_four_five():
    ref = householder_qr(np.array([[3.0], [4.0]]), scaling=SCALE_UNIT)
    assert ref.R[0, 0] == pytest.approx(-5.0, rel=1e-15)
    u = ref.aux["U"][:, 0]
    assert np.allclose(u / u[0], [1.0, 0.5], atol=1e-15)  # proportional to (8, 4)


def test_householder_woodbury(rng):
    A = rng.standard_normal((30, 6))
    ref = householder_qr(A)
    U, T = ref.aux["U"], ref.aux["T"]
    G = U.T @ U
    Tinv = np.linalg.inv(T)
    assert np.linalg.norm(G - (Tinv + Tinv.T)) <= 1e-12


def test_householder_breakdown():
    A = np.zeros((6, 2))
    A[0] = 1.0
    with pytest.raises(BreakdownError):
        householder_qr(A)


@pytest.mark.parametrize("factor", [householder_qr, sketch_qr])
def test_householder_qrs_refuse_a_wide_input(factor):
    # householder_qr's check is the one factor_input makes for every factorization
    want = "need p >= m" if factor is sketch_qr else "W must have n >= m"
    with pytest.raises(ValueError, match=f"{want}, got 3 x 5"):
        factor(np.ones((3, 5)))


def test_gram_schmidt_on_orthonormal_input(rng):
    Q0 = np.linalg.qr(rng.standard_normal((40, 8)))[0]
    for method in (cgs, mgs):
        out = method(Q0)
        assert np.allclose(out.Q, Q0, atol=1e-13)
        assert np.allclose(out.R, np.eye(8), atol=1e-13)


def test_gram_schmidt_near_dependence():
    W = np.zeros((10, 2))
    W[0, 0] = 1.0
    W[0, 1] = 1.0
    W[1, 1] = 1e-8
    for method in (cgs, mgs):
        out = method(W)
        assert out.R[1, 1] == pytest.approx(1e-8, rel=1e-6)


def test_cgs_loses_orthogonality_faster():
    H = 1.0 / (np.arange(50)[:, None] + np.arange(10)[None, :] + 1.0)
    ec = orthogonality_error(cgs(H).Q)
    em = orthogonality_error(mgs(H).Q)
    assert ec > em


def test_gram_schmidt_breakdown():
    W = np.zeros((6, 2))
    W[0] = 1.0
    for method in (cgs, mgs):
        with pytest.raises(BreakdownError):
            method(W)


def test_rgs_on_orthonormal_input(rng):
    Q0 = np.linalg.qr(rng.standard_normal((256, 10)))[0]
    out = rgs(Q0, SRHTSketch(200, 256, 2))
    assert np.linalg.norm(out.R - np.eye(10)) <= 0.5
    assert np.linalg.norm(out.Q - Q0) <= 0.5
    errs = factorization_errors(Q0, out.Q, out.R)
    assert errs.fro_rel_err <= 1e-13


def test_rgs_identity_embedding_matches_mgs_quality(rng):
    W = rng.standard_normal((60, 8))
    out = rgs(W, IdentitySketch(60))
    ref = mgs(W)
    assert factorization_errors(W, out.Q, out.R).fro_rel_err <= 1e-13
    assert orthogonality_error(out.Q) <= 10 * max(orthogonality_error(ref.Q), 1e-15)


def test_rgs_sketched_orthogonality(rng):
    W = rng.standard_normal((300, 20))
    om = SRHTSketch(120, 300, 4)
    out = rgs(W, om)
    SQ = om.apply(out.Q)
    assert np.linalg.norm(SQ.T @ SQ - np.eye(20)) <= 1e-8


def test_rgs_breakdown_only_on_exact_zero():
    # a duplicated column leaves a rounding-level residue and the sweep keeps
    # going; only an exactly zero sketched pivot stops it
    W = np.zeros((32, 2))
    W[0, 0] = 1.0
    W[0, 1] = 1.0
    out = rgs(W + 0.0, IdentitySketch(32))
    assert np.isfinite(out.R).all()
    Wz = np.zeros((32, 2))
    Wz[0, 0] = 1.0
    with pytest.raises(BreakdownError):
        rgs(Wz, IdentitySketch(32))


def test_rgs_degrades_while_rhqr_does_not(desk):
    # single precision, past the desk matrix's numerical singularity: the
    # projection-based method amplifies noise, the reflector-based one is flat
    pol = policy_from_tag("single")
    out = rgs(desk, SRHTSketch(320, 4096, 43), policy=pol)
    F = rhqr_left(desk, SRHTSketch(1200, 4096 - 300, 43), policy=pol)
    c_rgs = cond_number(out.Q)
    c_rh = cond_number(thin_q(F))
    assert c_rgs > 100.0
    assert c_rh < 2.0
    assert orthogonality_error(sketch_q(F)) <= 1e-4


def test_blas2_on_orthonormal_identity_embedding(rng):
    Q0 = np.linalg.qr(rng.standard_normal((40, 6)))[0]
    out = blas2_rgs(Q0, IdentitySketch(40))
    assert np.allclose(out.aux["T"], np.eye(6), atol=1e-13)
    assert np.allclose(out.Q, Q0, atol=1e-13)
    assert np.allclose(out.R, np.eye(6), atol=1e-13)


def test_blas2_first_column_is_rgs(rng):
    w = rng.standard_normal((128, 1))
    om = SRHTSketch(32, 128, 6)
    out = blas2_rgs(w, om)
    q = w[:, 0] / np.linalg.norm(om.apply(w[:, 0]))
    assert np.allclose(out.Q[:, 0], q, atol=1e-13)


def test_blas2_well_conditioned_correction(rng):
    W = np.linalg.qr(rng.standard_normal((2000, 60)))[0] @ np.diag(1.0 + 0.1 * rng.random(60))
    out = blas2_rgs(W, SRHTSketch(240, 2000, 8))
    assert np.linalg.norm(out.aux["T"] - np.eye(60)) <= 1e-6
    assert cond_number(blas2_corrected_sketch(out)) - 1.0 <= 1e-8


def test_blas2_desk_scale_conditioning(desk):
    # double: plain Q well conditioned, fully corrected sketched basis orthonormal
    out = blas2_rgs(desk, SRHTSketch(1200, 4096, 44))
    assert cond_number(out.Q) < 20.0
    assert cond_number(blas2_corrected_sketch(out)) - 1.0 <= 1e-10
    # single: the T-correction is what keeps the basis usable once the
    # matrix is numerically singular
    outs = blas2_rgs(desk, SRHTSketch(1200, 4096, 44), policy=policy_from_tag("single"))
    T = outs.aux["T"]
    assert cond_number(outs.Q @ T) < 20.0
    assert cond_number(outs.Q @ T) < cond_number(outs.Q)
    errs = factorization_errors(desk, outs.Q, outs.R)
    assert errs.fro_rel_err <= 1e-4


def test_rand_cholesky_orthonormal_identity(rng):
    Q0 = np.linalg.qr(rng.standard_normal((30, 5)))[0]
    out = rand_cholesky_qr(Q0, IdentitySketch(30))
    assert np.allclose(np.abs(np.diagonal(out.R)), 1.0, atol=1e-13)
    assert np.allclose(out.R, np.diag(np.diagonal(out.R)), atol=1e-13)
    assert orthogonality_error(out.Q) <= 1e-12


def test_rand_cholesky_residual(rng):
    W = rng.standard_normal((200, 20))
    out = rand_cholesky_qr(W, SRHTSketch(80, 200, 10))
    assert factorization_errors(W, out.Q, out.R).fro_rel_err <= 1e-13


@pytest.mark.parametrize("tag", ["double", "single"])
def test_rand_cholesky_r_is_householder_of_sketch(rng, tag):
    policy = policy_from_tag(tag)
    W = rng.standard_normal((300, 24))
    om = SRHTSketch(96, 300, 13)
    ref = householder_qr(om.apply(round_to(W, tag), dtype=policy.low_dtype), policy=policy)
    R = rand_cholesky_qr(W, om, policy=policy).R
    tol = 1e-12 if tag == "double" else 1e-5  # 1e-12 is below single's roundoff (6e-8)
    assert np.linalg.norm(R - ref.R) <= tol * np.linalg.norm(ref.R)


def _same_factors(got, ref):
    # sigma, rho and beta are read off R and T, so they agree with these
    pairs = [(got.S, ref.aux["U"]), (got.T, ref.aux["T"]), (got.R, ref.R)]
    return all(np.array_equal(a, b) for a, b in pairs)


@pytest.mark.parametrize("scaling", [SCALE_SQRT2, SCALE_UNIT])
def test_sketch_qr_zero_tail_is_householder_qr(rng, scaling):
    # LAPACK leaves a column with an exactly zero tail under a nonzero pivot
    # unreflected (tau = 0) where householder_qr reflects, so such a sketch
    # is factored by householder_qr itself
    n, m, ell = 60, 5, 20
    W = rng.standard_normal((n, m))
    W[:, 0] = 0.0
    W[0, 0] = 2.5
    F = rec_rhqr(W, GaussianSketch(ell, n - m, 7), scaling=scaling)
    Z = F.psi.apply(W)
    assert np.array_equal(Z[1:, 0], np.zeros(ell + m - 1))
    assert scipy.linalg.lapack.dgeqrt(m, Z)[1][0, 0] == 0.0
    ref = householder_qr(Z, scaling=scaling)
    assert _same_factors(sketch_qr(Z, scaling), ref)
    assert np.array_equal(F.R, ref.R) and np.array_equal(F.S, ref.aux["U"])


def test_sketch_qr_half_is_householder_qr(rng):
    policy = policy_from_tag("half")
    Z = round_to(rng.standard_normal((40, 6)), "half")
    assert _same_factors(sketch_qr(Z, policy=policy), householder_qr(Z, policy=policy))


def test_sketch_qr_negative_zero_pivot():
    # LAPACK reads the -0.0 pivot as negative; householder_qr's sign(-0.0)
    # is +1.  Both are Householder QRs of Z.
    Z = np.array([[-0.0], [3.0], [4.0]])
    got = sketch_qr(Z)
    assert got.R[0, 0] == 5.0 and reflector_scalars(got.R, got.T)[0][0] == -1.0
    assert householder_qr(Z).R[0, 0] == -5.0
    Q = np.eye(3) - got.S @ got.T @ got.S.T
    assert np.allclose(Q[:, :1] * got.R[0, 0], Z, atol=1e-15)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("tag", ["double", "single"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("row", [0, 40])
def test_sketch_qr_callers_refuse_nonfinite_input(rng, tag, bad, row):
    # LAPACK would return NaN factors with info = 0; the input gate refuses
    # the column before any sketch is taken
    n, m = 80, 6
    policy = policy_from_tag(tag)
    W = rng.standard_normal((n, m))
    W[row, 2] = bad
    for call in (lambda: rec_rhqr(W, SRHTSketch(24, n - m, 3), policy=policy),
                 lambda: rand_cholesky_qr(W, SRHTSketch(24, n, 3), policy=policy)):
        with pytest.raises(BreakdownError) as info:
            call()
        assert (info.value.reason, info.value.column) == ("nonfinite_input", 3)


def test_rand_cholesky_worse_than_reconstructed(desk):
    rec = rec_rhqr(desk, SRHTSketch(1200, 4096 - 300, 45))
    rc = rand_cholesky_qr(desk, SRHTSketch(1200, 4096, 45))
    assert cond_number(rc.Q) > cond_number(thin_q(rec))


def test_pivoted_qr_reconstructs(rng):
    A = rng.standard_normal((30, 8))
    U, R, perm, rank = pivoted_householder_qr(A)
    assert rank == 8
    X = np.zeros_like(A)
    X[:8] = R
    for k in range(rank - 1, -1, -1):
        u = U[k:, k]
        X[k:] -= np.outer(u, u @ X[k:])
    assert np.allclose(X, A[:, perm], atol=1e-12)
    d = np.abs(np.diagonal(R))
    assert np.all(d[:-1] >= d[1:] - 1e-12)


def test_pivoted_qr_rank_detection(rng):
    B = rng.standard_normal((30, 3))
    C = rng.standard_normal((3, 8))
    _, _, _, rank = pivoted_householder_qr(B @ C)
    assert rank == 3


def test_pivoted_lstsq_matches_lapack(rng):
    A = rng.standard_normal((40, 6))
    b = rng.standard_normal(40)
    x = pivoted_qr_lstsq(A, b)
    ref = np.linalg.lstsq(A, b, rcond=None)[0]
    assert np.allclose(x, ref, atol=1e-11)


def _grown_solve(B, p, policy):
    qr = _BasisQR(B.shape[0], B.shape[1], policy)
    for c in range(B.shape[1]):
        qr.append(B[:, c])
    return qr.lstsq(p)


def _resid(B, x, p):
    return np.linalg.norm(B.astype(np.float64) @ x - p.astype(np.float64))


@settings(max_examples=60, deadline=None)
@given(c=st.integers(1, 12), extra=st.integers(4, 60),
       tag=st.sampled_from(["double", "single", "half"]), seed=st.integers(0, 2 ** 32 - 1))
def test_grown_basis_solve_matches_pivoted_solve(c, extra, tag, seed):
    # unit columns, as rgs appends them; ell >= 2c + 4 keeps a Gaussian
    # basis well conditioned
    policy = policy_from_tag(tag)
    hi = policy.high_dtype
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((2 * c + extra, c))
    B = (B / np.linalg.norm(B, axis=0)).astype(hi)
    p = rng.standard_normal(B.shape[0]).astype(hi)
    x = _grown_solve(B, p, policy)
    ref = pivoted_qr_lstsq(B, p, dtype=hi)
    assert x.dtype == hi
    tol = 50 * policy.u_high * np.linalg.norm(p.astype(np.float64))
    assert np.linalg.norm(x - ref) <= tol
    assert abs(_resid(B, x, p) - _resid(B, ref, p)) <= tol


@settings(max_examples=60, deadline=None)
@given(c=st.integers(3, 12), extra=st.integers(4, 60), data=st.data(),
       tag=st.sampled_from(["double", "single", "half"]), seed=st.integers(0, 2 ** 32 - 1))
def test_grown_basis_solve_zeroes_a_dependent_column(c, extra, data, tag, seed):
    # the leading k columns (near the identity there) and column d live in
    # the leading k rows, so d lies in the span of the first k and its tail
    # is exactly zero.  The perturbation of the identity is scaled to 2-norm
    # 0.2, so the leading block's singular values lie in [0.8, 1.2]: an
    # unscaled 0.2 * G can come near singular (cond 1.3e3 at k = 8), past
    # what the conditioning-free tolerance below allows any solver
    k = data.draw(st.integers(1, c - 2))
    d = data.draw(st.integers(k, c - 1))
    policy = policy_from_tag(tag)
    hi = policy.high_dtype
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((2 * c + extra, c))
    E = B[:k, :k]
    B[:k, :k] = np.eye(k) + 0.2 * E / np.linalg.norm(E, 2)
    B[k:, :k] = 0.0
    B[k:, d] = 0.0
    B = (B / np.linalg.norm(B, axis=0)).astype(hi)
    p = rng.standard_normal(B.shape[0]).astype(hi)
    x = _grown_solve(B, p, policy)
    assert x[d] == 0.0
    tol = 50 * policy.u_high * np.linalg.norm(p.astype(np.float64))
    rest = np.delete(np.arange(c), d)
    ref = pivoted_qr_lstsq(B[:, rest], p, dtype=hi)
    assert np.linalg.norm(x[rest] - ref) <= tol
    if tag == "double":
        # the pivoted solver's rank tolerance is eps64-based, so only in
        # double does it see the dependency on the full basis too
        full = pivoted_qr_lstsq(B, p, dtype=hi)
        assert abs(_resid(B, x, p) - _resid(B, full, p)) <= tol


@pytest.mark.parametrize("tag,tail", [("double", 1e-17), ("single", 1e-17), ("half", 3e-5)])
def test_grown_basis_solve_drops_a_negligible_tail(tag, tail):
    # 1e-17 is below the rank tolerance eps64 * ell * ||b_1|| = 3.6e-15;
    # 3e-5 clears it, but as a half pivot it is subnormal, which
    # upper_tri_solve refuses
    hi = policy_from_tag(tag).high_dtype
    B = np.zeros((16, 2), dtype=hi)
    B[0] = 1.0
    B[1, 1] = tail
    assert B[1, 1] != 0.0
    x = _grown_solve(B, np.ones(16, dtype=hi), policy_from_tag(tag))
    assert x[1] == 0.0
    assert abs(x[0] - 1.0) <= 4 * policy_from_tag(tag).u_high


def test_rgs_runs_without_the_pivoted_solver(rng, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("pivoted_qr_lstsq called")

    monkeypatch.setattr(baselines, "pivoted_qr_lstsq", boom)
    monkeypatch.setattr(krylov, "pivoted_qr_lstsq", boom, raising=False)
    W = rng.standard_normal((64, 6))
    out = rgs(W, GaussianSketch(32, 64, 5))
    assert factorization_errors(W, out.Q, out.R).fro_rel_err <= 1e-12
    A = rng.standard_normal((64, 64)) / 8 + 2 * np.eye(64)
    b = rng.standard_normal(64)
    x, hist = rgs_gmres(A, b, None, 8, GaussianSketch(40, 64, 6))
    assert hist[-1] < hist[0]


def test_all_methods_accurate_on_easy_input(rng):
    W = rng.standard_normal((150, 12))
    om = SRHTSketch(60, 150, 12)
    runs = [
        householder_qr(W),
        cgs(W),
        mgs(W),
        rgs(W, om),
        blas2_rgs(W, om),
        rand_cholesky_qr(W, om),
    ]
    for out in runs:
        assert factorization_errors(W, out.Q, out.R).fro_rel_err <= 1e-10
        assert np.allclose(np.tril(out.R, -1), 0.0, atol=1e-14)


@pytest.mark.parametrize("factor", [rgs, blas2_rgs])
def test_rgs_sketches_column_zero_once(rng, factor):
    n, m = 64, 9
    om = CountingSketch(GaussianSketch(40, n, 3))
    factor(rng.standard_normal((n, m)), om)
    # one block sketch of W, then a re-sketch after each projection; column
    # 0 is not projected, so its column of the block serves both
    assert om.widths == [m] + [1] * (m - 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [510, 520, 1000])
@pytest.mark.parametrize("method", ["rgs", "blas2_rgs", "cgs", "mgs"])
def test_gram_schmidt_norm_overflow_is_a_breakdown(method, scale):
    # finite columns whose norm overflows double: a typed error at the
    # column, not an R that holds inf
    W = oscillatory(256, 16) * 2.0 ** scale
    args = (W,) if method in ("cgs", "mgs") else (W, SRHTSketch(64, 256, 3))
    with pytest.raises(BreakdownError) as info:
        getattr(baselines, method)(*args)
    assert (info.value.reason, info.value.column) == ("scale_nonfinite", 1)
