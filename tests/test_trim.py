import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sketchqr.baselines import householder_qr
from sketchqr.experiments import gen_cmatrix
from sketchqr.linalg import (
    SCALE_SQRT2,
    SCALE_UNIT,
    BreakdownError,
    cond_number,
    factorization_errors,
)
from sketchqr.precision import policy_from_tag, round_to
from sketchqr.sketching import (
    ColumnScaledSketch,
    GaussianSketch,
    IdentitySketch,
    SRHTSketch,
)
from sketchqr.trim import (
    normalize_leading_columns,
    trim_rh_vector,
    trim_rhqr_left,
    trim_rhqr_right,
    trim_thin_q,
)
from oracles import (
    MatrixSketch,
    dense_operator_matrix,
    t_factor_from_sketches,
    t_tilde_from_factors,
)


def dense_tilde(omega, m):
    """Dense matrix of the wrapped operator, leading m columns sketched to unit norm."""
    return dense_operator_matrix(normalize_leading_columns(omega, m))


def dense_trim_reflector(v, Om, j):
    """H = I - beta*v*(Om v)^t*Om_j on R^n, Om_j = Om with first j-1 columns zeroed."""
    n = Om.shape[1]
    x = np.zeros(n)
    x[j - 1:] = v
    vs = Om @ x
    Omj = Om.copy()
    Omj[:, : j - 1] = 0.0
    return np.eye(n) - (2.0 / (vs @ vs)) * np.outer(x, vs) @ Omj


def ut_matrix(S, Om):
    """Row i of ut((Om U)^t Om): zero on coordinates < i, <s_i, Om e_k> beyond."""
    K = S.T @ Om
    for i in range(K.shape[0]):
        K[i, :i] = 0.0
    return K


def test_identity_sketch_degenerates_to_householder(rng):
    for _ in range(5):
        W = rng.standard_normal((64, 8))
        ref = householder_qr(W)
        for driver in (trim_rhqr_left, trim_rhqr_right):
            F = driver(W, IdentitySketch(64))
            assert np.linalg.norm(F.R - ref.R) <= 1e-13 * np.linalg.norm(ref.R)
            assert np.linalg.norm(F.U - ref.aux["U"]) <= 1e-13 * np.linalg.norm(ref.aux["U"])
            assert np.linalg.norm(trim_thin_q(F) - ref.Q) <= 1e-13 * np.linalg.norm(ref.Q)


def test_identity_block_input_closed_form(rng):
    # W = [I; 0] never mixes coordinates, so R depends only on the sketched
    # unit leading columns: R = I - 2*triu(E^t E), diagonal exactly -1
    n, m = 40, 6
    W = np.zeros((n, m))
    W[:m] = np.eye(m)
    F = trim_rhqr_left(W, GaussianSketch(15, n, 5))
    G = F.E.T @ F.E
    expect = np.eye(m) - 2.0 * np.triu(G)
    assert np.allclose(F.R, expect, atol=1e-12)
    assert np.allclose(np.diagonal(F.R), -1.0, atol=1e-12)
    # orthonormal sketched leading columns collapse it to -I
    Fi = trim_rhqr_left(W, IdentitySketch(n))
    assert np.allclose(Fi.R, -np.eye(m), atol=1e-13)


def test_left_right_agree(rng):
    W = rng.standard_normal((120, 12))
    om = GaussianSketch(40, 120, 11)
    for scaling in (SCALE_SQRT2, SCALE_UNIT):
        Fl = trim_rhqr_left(W, om, scaling=scaling)
        Fr = trim_rhqr_right(W, om, scaling=scaling)
        for a, b in ((Fl.R, Fr.R), (Fl.U, Fr.U), (Fl.T, Fr.T), (Fl.T_tilde, Fr.T_tilde)):
            assert np.linalg.norm(a - b) <= 1e-11 * max(1.0, np.linalg.norm(b))


def _check_single_column_matches_vector_kernel(rng, base):
    w = rng.standard_normal(50)
    om = normalize_leading_columns(base, 1)
    step = trim_rh_vector(w, om, 1)
    F = trim_rhqr_left(w[:, None], om)
    assert np.allclose(F.U[:, 0], step.u, atol=1e-14)
    assert np.allclose(F.S[:, 0], step.s, atol=1e-14)
    assert F.R[0, 0] == pytest.approx(-step.sigma * step.rho, rel=1e-14)


def test_single_column_matches_vector_kernel(rng):
    _check_single_column_matches_vector_kernel(rng, GaussianSketch(18, 50, 3))


def test_single_column_matches_vector_kernel_srht(rng):
    # one column leaves the block sketch of W[:, 1:] with no columns
    _check_single_column_matches_vector_kernel(rng, SRHTSketch(18, 50, 3))


def test_reconstruction_small(rng):
    W = rng.standard_normal((100, 12))
    for om in (GaussianSketch(40, 100, 7), SRHTSketch(40, 100, 7)):
        F = trim_rhqr_left(W, om)
        Q = trim_thin_q(F)
        errs = factorization_errors(W, Q, F.R)
        assert errs.fro_rel_err <= 1e-12
        # leading-column factors are prefixes of the full ones
        F7 = F.prefix(7)
        e7 = factorization_errors(W[:, :7], trim_thin_q(F7), F7.R)
        assert e7.fro_rel_err <= 1e-12


def test_dense_composition_forward_and_reverse(rng):
    n, m, ell = 48, 6, 20
    W = rng.standard_normal((n, m))
    om = GaussianSketch(ell, n, 13)
    F = trim_rhqr_left(W, om)
    Om = dense_tilde(om, m)
    K = ut_matrix(F.S, Om)
    chain_fwd = np.eye(n)
    chain_rev = np.eye(n)
    for j in range(1, m + 1):
        H = dense_trim_reflector(F.U[j - 1:, j - 1], Om, j)
        chain_fwd = chain_fwd @ H
        chain_rev = H @ chain_rev
    assert np.allclose(chain_fwd, np.eye(n) - F.U @ (F.T @ K), atol=1e-11)
    assert np.allclose(chain_rev, np.eye(n) - F.U @ (F.T_tilde.T @ K), atol=1e-11)
    # reflectors are involutions, so the two chains undo each other
    assert np.allclose(chain_fwd @ chain_rev, np.eye(n), atol=1e-11)
    # and the forward chain maps [R; 0] back to W
    RW = np.zeros((n, m))
    RW[:m] = F.R
    assert np.allclose(chain_fwd @ RW, W, atol=1e-11 * np.linalg.norm(W))


def test_t_tilde_closed_form_matches_recursion(rng):
    W = rng.standard_normal((80, 10))
    om = GaussianSketch(30, 80, 17)
    for scaling in (SCALE_SQRT2, SCALE_UNIT):
        F = trim_rhqr_left(W, om, scaling=scaling)
        Tt = t_tilde_from_factors(F.S, F.E, F.U)
        assert np.allclose(Tt, F.T_tilde, atol=1e-10 * np.linalg.norm(F.T_tilde))


def test_woodbury_t_recovery(rng):
    W = rng.standard_normal((90, 9))
    om = GaussianSketch(36, 90, 19)
    for scaling in (SCALE_SQRT2, SCALE_UNIT):
        F = trim_rhqr_left(W, om, scaling=scaling)
        T2 = t_factor_from_sketches(F.S)
        assert np.allclose(T2, F.T, atol=1e-11 * np.linalg.norm(F.T))


def test_scaling_modes_agree(rng):
    W = rng.standard_normal((70, 8))
    om = SRHTSketch(32, 70, 23)
    Fa = trim_rhqr_left(W, om)
    Fb = trim_rhqr_left(W, om, scaling=SCALE_UNIT)
    assert np.allclose(Fa.R, Fb.R, atol=1e-12 * np.linalg.norm(Fa.R))
    assert np.allclose(trim_thin_q(Fa), trim_thin_q(Fb), atol=1e-12)


def test_single_reflector_eliminates_tail(rng):
    n, j = 60, 4
    om = normalize_leading_columns(GaussianSketch(20, n, 29), j)
    w = rng.standard_normal(n)
    head = w[: j - 1].copy()
    step = trim_rh_vector(w[j - 1:], om, j)
    Om = dense_operator_matrix(om)
    H = dense_trim_reflector(step.u, Om, j)
    out = H @ w
    # coordinates before j never move, the tail collapses onto the pivot
    assert np.array_equal(out[: j - 1], head)
    assert out[j - 1] == pytest.approx(-step.sigma * step.rho, rel=1e-13)
    assert np.linalg.norm(out[j:]) <= 1e-13 * np.linalg.norm(w)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5))
def test_sketch_commutation(seed, j):
    # Om_j H x = P(v') Om_j x with the plain dense reflector of the sketched vector
    g = np.random.default_rng(seed)
    n = 30
    om = normalize_leading_columns(GaussianSketch(12, n, seed % 1000), j)
    w = g.standard_normal(n - j + 1)
    step = trim_rh_vector(w, om, j)
    Om = dense_operator_matrix(om)
    Omj = Om.copy()
    Omj[:, : j - 1] = 0.0
    x = g.standard_normal(n)
    H = dense_trim_reflector(step.u, Om, j)
    vs = step.s
    P = np.eye(Om.shape[0]) - (2.0 / (vs @ vs)) * np.outer(vs, vs)
    assert np.allclose(Omj @ (H @ x), P @ (Omj @ x), atol=1e-12 * np.linalg.norm(x))


def test_normalize_leading_columns(rng):
    for om in (GaussianSketch(24, 64, 31), SRHTSketch(24, 64, 31)):
        wrapped = normalize_leading_columns(om, 10)
        assert isinstance(wrapped, ColumnScaledSketch)
        eye = np.eye(64)[:, :10]
        Y = wrapped.apply(eye)
        assert np.allclose(np.linalg.norm(Y, axis=0), 1.0, atol=1e-14)
        # wrapping is idempotent when enough columns are covered
        again = normalize_leading_columns(wrapped, 8)
        assert again is wrapped
    dead = np.ones((6, 12))
    dead[:, 2] = 0.0
    with pytest.raises(ValueError, match="column 3"):
        normalize_leading_columns(MatrixSketch(dead), 5)
    with pytest.raises(ValueError, match="^cannot normalize 13 leading columns of 12 inputs$"):
        normalize_leading_columns(MatrixSketch(dead), 13)


@pytest.mark.parametrize("j", [0, 5])
def test_trim_rh_vector_refuses_an_index_outside_the_coordinates(j):
    om = normalize_leading_columns(GaussianSketch(3, 4, 1), 2)
    with pytest.raises(ValueError, match=f"^elimination index {j} outside 4 coordinates$"):
        trim_rh_vector(np.ones(4), om, j)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("sweep", [trim_rhqr_left, trim_rhqr_right])
def test_unit_scaling_stops_when_its_pivot_overflows_the_reflector(sweep, seed):
    # column 3 scaled by 1e-160 has a sketched reflector norm whose square
    # underflows, so the scale 2/||Omega v||^2 overflows and beta stays inf
    # after the division by the (finite) pivot
    W = np.random.default_rng(seed).standard_normal((64, 6))
    W[:, 2] *= 1e-160
    with pytest.raises(BreakdownError, match="unit scaling degenerated at column 3") as exc:
        sweep(W, SRHTSketch(24, 64, 2), scaling=SCALE_UNIT)
    assert (exc.value.column, exc.value.reason) == (3, "scale_nonfinite")


def test_breakdown_on_exact_dependence():
    n = 32
    W = np.zeros((n, 2))
    W[0] = 1.0  # two copies of e_1: the second tail is exactly zero after the update
    with pytest.raises(BreakdownError):
        trim_rhqr_left(W, GaussianSketch(12, n, 37))


def test_breakdown_on_degenerate_sketch_geometry():
    # first sketched column anti-aligned with the sketched tail cancels v'
    y = np.array([0.6, 0.8])
    Om = np.zeros((2, 5))
    Om[:, 0] = -y
    Om[:, 1] = y
    Om[:, 2:] = np.array([[1.0, 0.3, -0.2], [0.1, 0.9, 0.4]])
    om = normalize_leading_columns(MatrixSketch(Om), 1)
    w = np.zeros(5)
    w[1] = 1.0
    with pytest.raises(BreakdownError, match="cancelled"):
        trim_rh_vector(w, om, 1)


def test_unit_scaling_pivot_breakdown():
    Om = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    om = normalize_leading_columns(MatrixSketch(Om), 1)
    w = np.array([0.0, 1.0, 0.0])
    # sqrt2 mode shrugs, unit mode cannot divide by the zero sketched pivot
    trim_rh_vector(w, om, 1)
    with pytest.raises(BreakdownError, match="pivot"):
        trim_rh_vector(w, om, 1, scaling=SCALE_UNIT)


def test_prefix_matches_truncated_run(rng):
    W = rng.standard_normal((80, 10))
    # share one wrapped operator: the normalization span is part of the sketch
    om = normalize_leading_columns(GaussianSketch(30, 80, 41), 10)
    F = trim_rhqr_left(W, om)
    F6 = trim_rhqr_left(W[:, :6], om)
    P6 = F.prefix(6)
    for a, b in ((P6.R, F6.R), (P6.U, F6.U), (P6.T, F6.T), (P6.T_tilde, F6.T_tilde), (P6.L, F6.L)):
        assert np.allclose(a, b, atol=1e-12 * max(1.0, np.linalg.norm(b)))


@pytest.mark.parametrize("j", [-1, 7, 2.5])
def test_prefix_refuses_a_width_outside_the_factors(rng, j):
    # a negative or too large j used to slice silently (prefix(-2) gave 4
    # columns of 6)
    F = trim_rhqr_left(rng.standard_normal((40, 6)), SRHTSketch(16, 40, 3))
    with pytest.raises(ValueError, match=rf"j={j}.*m=6"):
        F.prefix(j)
    assert F.prefix(6).U.shape == (40, 6) and F.prefix(0).R.shape == (0, 0)


def test_shape_validation():
    with pytest.raises(ValueError):
        trim_rhqr_left(np.ones(5), GaussianSketch(4, 5, 1))
    with pytest.raises(ValueError):
        trim_rhqr_left(np.ones((6, 2)), GaussianSketch(4, 5, 1))
    om = normalize_leading_columns(GaussianSketch(4, 8, 1), 2)
    with pytest.raises(ValueError):
        trim_rh_vector(np.ones(3), om, 2)  # tail length must be n - j + 1


def test_small_sketch_stays_bounded_in_single(rng):
    # ell < m on a progressively ill-conditioned matrix: cond grows gently
    # instead of exploding once columns pass numerical singularity
    n, m = 256, 40
    x = np.arange(n) / (n - 1.0)
    mu = np.arange(m) / (m - 1.0)
    W = np.sin(10.0 * (mu[None, :] + x[:, None])) / (np.cos(100.0 * (mu[None, :] - x[:, None])) + 1.1)
    pol = policy_from_tag("single")
    F = trim_rhqr_left(W, SRHTSketch(28, n, 43), policy=pol)
    conds = [cond_number(trim_thin_q(F.prefix(j))) for j in range(8, m + 1, 8)]
    assert all(np.isfinite(conds))
    assert conds == sorted(conds) or max(conds) < 1e3
    assert cond_number(trim_thin_q(F)) < 1e3


@pytest.mark.parametrize("seed", [15, 19, 20, 22, 23, 27, 33])
def test_unit_scaling_runs_through_small_pivots_in_half(seed):
    # a pivot of a fraction of a percent of the sketched norm is an ordinary
    # value in half precision; only an exactly zero or a non-finite scale
    # stops the sweep, as in rh_vector
    W = gen_cmatrix(256, 24)
    policy = policy_from_tag("half")
    F = trim_rhqr_left(W, SRHTSketch(48, 256, seed), scaling=SCALE_UNIT, policy=policy)
    Wl = round_to(W, "half")
    assert np.linalg.norm(Wl - trim_thin_q(F) @ F.R) <= 5e-3 * np.linalg.norm(Wl)
