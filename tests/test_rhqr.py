import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sketchqr.baselines import householder_qr
from sketchqr.linalg import (
    SCALE_SQRT2,
    SCALE_UNIT,
    BreakdownError,
    factorization_errors,
)
from sketchqr.precision import policy_from_tag, round_to
from sketchqr.rhqr import (
    apply_reflectors_compact,
    lsq_via_implicit_q,
    rec_rhqr,
    rh_vector,
    rhqr_block,
    rhqr_left,
    rhqr_right,
    sketch_q,
    t_factor_from_sketches,
    thin_q,
)
from sketchqr.experiments import gen_cmatrix
from sketchqr.sketching import EmbeddedSketch, GaussianSketch, IdentitySketch, SRHTSketch
from sketchqr.trim import normalize_leading_columns, trim_rhqr_left
from oracles import CountingSketch, dense_embedded_matrix, dense_reflector


def full_embedding(n, m):
    return EmbeddedSketch(m, IdentitySketch(n - m))


def test_rh_vector_three_four_five():
    psi = full_embedding(4, 2)
    w = np.array([3.0, 0.0, 4.0, 0.0])
    y = psi.apply(w)
    step = rh_vector(w, y, 1)
    assert step.sigma == 1.0
    assert step.rho == pytest.approx(5.0, abs=1e-15)
    # sqrt2 mode carries u = (8,0,4,0)*sqrt(1/40)
    assert np.allclose(step.u, np.array([8.0, 0.0, 4.0, 0.0]) * np.sqrt(1.0 / 40.0), atol=1e-15)
    out = apply_reflectors_compact(step.u[:, None], step.s[:, None],
                                   np.array([[step.beta]]), w, psi)
    assert np.allclose(out, [-5.0, 0.0, 0.0, 0.0], atol=1e-14)
    # unit mode divides by gamma = 8 and keeps beta = gamma/rho
    stepb = rh_vector(w, y, 1, scaling=SCALE_UNIT)
    assert np.allclose(stepb.u, [1.0, 0.0, 0.5, 0.0], atol=1e-15)
    assert stepb.beta == pytest.approx(8.0 / 5.0, rel=1e-15)
    outb = apply_reflectors_compact(stepb.u[:, None], stepb.s[:, None],
                                    np.array([[stepb.beta]]), w, psi)
    assert np.allclose(outb, [-5.0, 0.0, 0.0, 0.0], atol=1e-14)


def test_rh_vector_canonical_column():
    psi = full_embedding(6, 2)
    w = np.eye(6)[:, 0]
    step = rh_vector(w, psi.apply(w), 1, scaling=SCALE_UNIT)
    assert step.rho == pytest.approx(1.0)
    assert np.allclose(step.u, np.eye(6)[:, 0], atol=1e-15)  # 2*e1 over gamma=2
    out = apply_reflectors_compact(step.u[:, None], step.s[:, None],
                                   np.array([[step.beta]]), w, psi)
    assert np.allclose(out, -w, atol=1e-14)


def test_rh_vector_sketched_elimination(rng):
    n, m, ell, j = 50, 5, 20, 3
    psi = EmbeddedSketch(m, GaussianSketch(ell, n - m, 2))
    w = rng.standard_normal(n)
    y = psi.apply(w)
    step = rh_vector(w, y, j)
    P = dense_reflector(step.u, dense_embedded_matrix(psi), step.beta)
    out = psi.apply(P @ w)
    assert np.max(np.abs(out[j:])) <= 1e-13 * np.linalg.norm(y)
    # head coordinates and the sketch value at j are what the R column stores
    assert np.allclose(out[:j - 1], y[:j - 1], atol=1e-13 * np.linalg.norm(y))
    assert out[j - 1] == pytest.approx(-step.sigma * step.rho, rel=1e-12)


def test_rh_vector_top_block_exactness(rng):
    n, m = 30, 6
    psi = EmbeddedSketch(m, GaussianSketch(12, n - m, 9))
    w = rng.standard_normal(n)
    step = rh_vector(w, psi.apply(w), 2)
    assert np.array_equal(step.u[:1], step.s[:1])  # zeros ahead of j
    assert np.allclose(step.s[:m], step.u[:m], atol=1e-15)
    assert abs(np.dot(step.s, step.s) - 2.0) <= 8 * 2.0 ** -52


def test_rh_vector_breakdown():
    psi = full_embedding(8, 2)
    w = np.zeros(8)
    with pytest.raises(BreakdownError):
        rh_vector(w, psi.apply(w), 1)


@pytest.mark.parametrize("j", [0, 9])
def test_rh_vector_refuses_an_index_outside_the_sketch(j):
    psi = full_embedding(8, 2)
    w = np.ones(8)
    with pytest.raises(ValueError, match=f"elimination index {j} outside sketch of length 8"):
        rh_vector(w, psi.apply(w), j)


def test_apply_reflectors_empty_and_involution(rng):
    n, m = 40, 5
    psi = EmbeddedSketch(m, GaussianSketch(16, n - m, 4))
    X = rng.standard_normal((n, 3))
    out = apply_reflectors_compact(np.zeros((n, 0)), np.zeros((psi.out_dim, 0)),
                                   np.zeros((0, 0)), X, psi)
    assert np.array_equal(out, X)
    F = rhqr_left(rng.standard_normal((n, m)), GaussianSketch(16, n - m, 4))
    x = rng.standard_normal(n)
    y = apply_reflectors_compact(F.U, F.S, F.T, x, F.psi)
    back = apply_reflectors_compact(F.U, F.S, F.T, y, F.psi, transpose_t=True)
    assert np.allclose(back, x, atol=1e-12 * np.linalg.norm(x))


def test_single_reflector_matches_dense(rng):
    n, m = 24, 4
    psi = EmbeddedSketch(m, GaussianSketch(10, n - m, 6))
    w = rng.standard_normal(n)
    step = rh_vector(w, psi.apply(w), 1)
    X = rng.standard_normal((n, 2))
    dense = dense_reflector(step.u, dense_embedded_matrix(psi), step.beta) @ X
    compact = apply_reflectors_compact(step.u[:, None], step.s[:, None],
                                       np.array([[step.beta]]), X, psi)
    assert np.allclose(compact, dense, atol=1e-13 * np.linalg.norm(X))


def test_identity_block_input(rng):
    n, m = 16, 3
    W = np.zeros((n, m))
    W[:m] = np.eye(m)
    for driver in (rhqr_left, rhqr_right):
        F = driver(W, GaussianSketch(6, n - m, 8))
        assert np.allclose(F.R, -np.eye(m), atol=1e-14)
        Q = thin_q(F)
        assert np.allclose(Q[:m], -np.eye(m), atol=1e-14)
        assert np.allclose(Q[m:], 0.0, atol=1e-14)


def test_identity_embedding_degenerates_to_householder(rng):
    for _ in range(5):
        W = rng.standard_normal((64, 8))
        ref = householder_qr(W)
        for driver in (rhqr_left, rhqr_right):
            F = driver(W, IdentitySketch(56))
            assert np.linalg.norm(F.R - ref.R) <= 1e-13 * np.linalg.norm(ref.R)
            assert np.linalg.norm(F.U - ref.aux["U"]) <= 1e-13 * np.linalg.norm(ref.aux["U"])
            assert np.linalg.norm(F.T - ref.aux["T"]) <= 1e-13 * np.linalg.norm(ref.aux["T"])
            assert np.linalg.norm(thin_q(F) - ref.Q) <= 1e-13 * np.linalg.norm(ref.Q)


def test_sketch_equals_householder_of_sketched_matrix(rng):
    # R (and S under matching conventions) of RHQR equal plain Householder
    # QR applied to the sketched matrix
    n, m, ell = 200, 20, 60
    W = rng.standard_normal((n, m))
    for make in (lambda: GaussianSketch(ell, n - m, 12), lambda: SRHTSketch(ell, n - m, 12)):
        F = rhqr_left(W, make())
        Z = F.psi.apply(W)
        ref = householder_qr(Z)
        assert np.linalg.norm(F.R - ref.R) <= 1e-12 * np.linalg.norm(ref.R)
        assert np.linalg.norm(F.S - ref.aux["U"]) <= 1e-12 * np.linalg.norm(ref.aux["U"])
        assert np.linalg.norm(F.T - ref.aux["T"]) <= 1e-12 * np.linalg.norm(ref.aux["T"])


def test_left_right_agree(rng):
    n, m = 100, 12
    W = rng.standard_normal((n, m))
    om = GaussianSketch(40, n - m, 14)
    Fl = rhqr_left(W, om)
    Fr = rhqr_right(W, om)
    assert np.allclose(Fl.R, Fr.R, atol=1e-12 * np.linalg.norm(Fr.R))
    assert np.allclose(Fl.U, Fr.U, atol=1e-12 * np.linalg.norm(Fr.U))


def test_factor_shapes_and_triangles(rng):
    n, m = 60, 7
    F = rhqr_left(rng.standard_normal((n, m)), GaussianSketch(24, n - m, 16))
    assert np.allclose(np.triu(F.U, 1), 0.0)
    assert np.allclose(np.tril(F.R, -1), 0.0)
    assert np.allclose(np.tril(F.T, -1), 0.0)
    G = F.S.T @ F.S
    Tinv = np.linalg.inv(F.T)
    assert np.linalg.norm(G - (Tinv + Tinv.T)) <= 1e-11 * np.linalg.norm(G)


def test_thin_q_and_sketch_q_consistency(rng):
    n, m = 80, 10
    W = rng.standard_normal((n, m))
    F = rhqr_left(W, SRHTSketch(32, n - m, 18))
    Q = thin_q(F)
    errs = factorization_errors(W, Q, F.R)
    assert errs.max_col_rel_err <= 1e-12
    assert np.allclose(sketch_q(F), F.psi.apply(Q), atol=1e-12)
    # the sketched basis is orthonormal to working precision
    SQ = sketch_q(F)
    assert np.linalg.norm(SQ.T @ SQ - np.eye(m)) <= 1e-12


def test_lu_structure_of_thin_q(rng):
    n, m = 40, 6
    F = rhqr_left(rng.standard_normal((n, m)), GaussianSketch(16, n - m, 20),
                  scaling=SCALE_UNIT)
    M = -thin_q(F)
    M[:m] += np.eye(m)
    lower = F.U
    upper = F.T @ F.U[:m, :m].T
    assert np.allclose(M, lower @ upper, atol=1e-11 * max(1.0, np.linalg.norm(M)))
    assert np.allclose(np.diagonal(lower[:m]), 1.0)  # unit scaling -> unit LU diagonal
    assert np.allclose(np.tril(upper, -1), 0.0, atol=1e-14)


def test_t_factor_from_sketches_small_cases():
    S = np.zeros((6, 2))
    S[0, 0] = np.sqrt(2.0)
    S[1, 1] = np.sqrt(2.0)
    assert np.allclose(t_factor_from_sketches(S), np.eye(2), atol=1e-14)
    s = np.array([[2.0], [1.0]])  # ||s||^2 = 5 -> T = [2/5]
    assert np.allclose(t_factor_from_sketches(s), [[0.4]], atol=1e-15)


def test_t_factor_round_trip(rng):
    S = rng.standard_normal((30, 8))
    T = t_factor_from_sketches(S)
    G = S.T @ S
    Tinv = np.linalg.inv(T)
    assert np.linalg.norm(G - (Tinv + Tinv.T)) <= 1e-12 * np.linalg.norm(G)


def test_block_matches_unblocked(rng):
    n, m = 60, 8
    W = rng.standard_normal((n, m))
    om = GaussianSketch(24, n - m, 22)
    ref = rhqr_left(W, om)
    for bs in (m, 1, 3):  # one panel, degenerate, ragged final panel
        B = rhqr_block(W, om, block_size=bs)
        assert np.allclose(B.R, ref.R, atol=1e-12 * np.linalg.norm(ref.R))
        F = B.stacked()
        assert np.allclose(F.U, ref.U, atol=1e-12 * np.linalg.norm(ref.U))
        errs = factorization_errors(W, thin_q(F), F.R)
        assert errs.fro_rel_err <= 1e-13


def _factor_arrays(f):
    return [getattr(f, fld.name) for fld in dataclasses.fields(f)
            if isinstance(getattr(f, fld.name), np.ndarray)]


@pytest.mark.parametrize("tag", ["double", "single", "mixed", "half"])
def test_block_with_one_panel_is_left_sweep(rng, tag):
    n, m = 60, 8
    W = rng.standard_normal((n, m))
    om = SRHTSketch(24, n - m, 22)
    policy = policy_from_tag(tag)
    ref = _factor_arrays(rhqr_left(W, om, policy=policy))
    for bs in (m, m + 5):
        got = _factor_arrays(rhqr_block(W, om, block_size=bs, policy=policy))
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, ref))


@pytest.mark.parametrize("bs", [4, 7, 20])
def test_block_sketches_each_panel_once(rng, bs):
    n, m = 80, 20
    W = rng.standard_normal((n, m))
    om = CountingSketch(GaussianSketch(60, n - m, 40))
    rhqr_block(W, om, block_size=bs)
    # every panel but the first is sketched as a whole for its update by
    # the earlier reflectors; every panel is then sketched once, as a
    # block, and each column but the panel's first once more after its
    # update
    expected = []
    for j0 in range(0, m, bs):
        b = min(bs, m - j0)
        expected += [b] * (2 if j0 else 1) + [1] * (b - 1)
    assert om.widths == expected


def test_left_sketches_w_once(rng):
    n, m = 80, 20
    om = CountingSketch(SRHTSketch(60, n - m, 41))
    rhqr_left(rng.standard_normal((n, m)), om)
    # one m-wide block, then the re-sketch of every updated column
    assert om.widths == [m] + [1] * (m - 1)


def test_trim_left_sketches_the_updates_once(rng):
    n, m = 80, 9
    om = CountingSketch(SRHTSketch(40, n, 42))
    wrapped = normalize_leading_columns(om, m)
    om.widths.clear()
    trim_rhqr_left(rng.standard_normal((n, m)), wrapped)
    # one block for the updates of columns 2..m, then the two sketches of
    # every trim_rh_vector
    assert om.widths == [m - 1] + [1] * (2 * m)


# blake2b digests of every factor array of the two left sweeps.  Their
# updates run through BLAS, so the digests pin the numpy/OpenBLAS build as
# well as the sweeps' arithmetic and the memory layout of float32 blocks.
LEFT_SWEEP_DIGESTS = {
    ("rhqr_left", "double", "sqrt2"): "f3c005b62121b347fbb166dd9ac6d848",
    ("rhqr_left", "double", "unit"): "a4e4be1277ada187c842cd0fadb814c5",
    ("rhqr_left", "single", "sqrt2"): "86c05c8f7e9454f84386af012b9a80e7",
    ("rhqr_left", "single", "unit"): "b01bc32ed4d64ad6814ebc59fb5f708f",
    ("rhqr_left", "mixed", "sqrt2"): "2347e512a7a6e6d47fc67dbba9b651d6",
    ("rhqr_left", "mixed", "unit"): "a94f4227e3bb3538fb02ae5c7bb17990",
    ("rhqr_left", "half", "sqrt2"): "022c40dd5c51472ca7330c45447cbe8d",
    ("rhqr_left", "half", "unit"): "1c0be5440341f5b4efe1be52861e6bc7",
    ("trim_rhqr_left", "double", "sqrt2"): "2fb9b42d6424a208d797efd547a3ab5e",
    ("trim_rhqr_left", "double", "unit"): "f64f943f1e253063e579871f6417d985",
    ("trim_rhqr_left", "single", "sqrt2"): "18cbd59949bd7448aebff6ba10027b50",
    ("trim_rhqr_left", "single", "unit"): "69340f0431319432d0870a7006aad7ff",
    ("trim_rhqr_left", "mixed", "sqrt2"): "d6c76bf7961fda16d6faf1d9371ccf23",
    ("trim_rhqr_left", "mixed", "unit"): "d0e4daff5d5bff4c9b717f4bc904f880",
    ("trim_rhqr_left", "half", "sqrt2"): "e439b2f560a3a8af72278bbdc330bce1",
    ("trim_rhqr_left", "half", "unit"): "b33462965186cc18f93ae1dbca280a01",
}


@pytest.mark.parametrize("case", list(LEFT_SWEEP_DIGESTS), ids="-".join)
def test_left_sweep_golden_digests(case):
    algo, tag, scaling = case
    W = gen_cmatrix(256, 24)
    policy = policy_from_tag(tag)
    if algo == "rhqr_left":
        f = rhqr_left(W, SRHTSketch(96, 232, 17), scaling=scaling, policy=policy)
    else:
        f = trim_rhqr_left(W, SRHTSketch(48, 256, 16), scaling=scaling, policy=policy)
    h = hashlib.blake2b(digest_size=16)
    for a in _factor_arrays(f):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    assert h.hexdigest() == LEFT_SWEEP_DIGESTS[case]


def test_rec_rhqr_identity_block(rng):
    n, m, ell = 20, 4, 8
    W = np.zeros((n, m))
    W[:m] = np.eye(m)
    F = rec_rhqr(W, GaussianSketch(ell, n - m, 24))
    Z = np.zeros((ell + m, m))
    Z[:m] = np.eye(m)
    ref = householder_qr(Z)
    assert np.allclose(F.U[m:], 0.0, atol=1e-13)
    assert np.allclose(F.R, ref.R, atol=1e-13)
    assert np.allclose(F.S, ref.aux["U"], atol=1e-13)


def test_rec_rhqr_matches_left(rng):
    n, m = 30, 5
    W = rng.standard_normal((n, m))
    om = GaussianSketch(12, n - m, 26)
    Fr = rec_rhqr(W, om)
    Fl = rhqr_left(W, om)
    assert np.allclose(Fr.U, Fl.U, atol=1e-10 * np.linalg.norm(Fl.U))
    assert np.allclose(Fr.R, Fl.R, atol=1e-10 * np.linalg.norm(Fl.R))


@pytest.mark.parametrize("tag", ["double", "single"])
@pytest.mark.parametrize("scaling", [SCALE_SQRT2, SCALE_UNIT])
def test_rec_rhqr_factors_are_householder_of_sketch(rng, tag, scaling):
    # rec_rhqr's LAPACK sketch QR and householder_qr of the same explicit
    # sketch agree in every factor
    n, m, ell = 400, 24, 96
    policy = policy_from_tag(tag)
    W = rng.standard_normal((n, m))
    F = rec_rhqr(W, SRHTSketch(ell, n - m, 31), scaling=scaling, policy=policy)
    Z = F.psi.apply(round_to(W, tag), dtype=policy.low_dtype)
    ref = householder_qr(Z, scaling=scaling, policy=policy)
    tol = 1e-12 if tag == "double" else 1e-5  # 1e-12 is below single's roundoff (6e-8)
    for got, want in [(F.S, ref.aux["U"]), (F.T, ref.aux["T"]), (F.R, ref.R),
                      (F.rhos, ref.aux["rhos"]), (F.betas, ref.aux["betas"])]:
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)
    assert np.array_equal(F.sigmas, ref.aux["sigmas"])


def test_rec_rhqr_negative_zero_pivot_reads_as_negative(rng):
    # LAPACK takes a -0.0 pivot as negative, where sign(-0.0) = +1 in the
    # sweeps: R[0, 0] comes out +rho in rec_rhqr and -rho in rhqr_left
    n, m = 40, 3
    W = rng.standard_normal((n, m))
    W[0, 0] = -0.0
    om = GaussianSketch(12, n - m, 5)
    Fr = rec_rhqr(W, om)
    Fl = rhqr_left(W, om)
    assert Fr.R[0, 0] > 0 > Fl.R[0, 0]
    assert Fr.sigmas[0] == -1.0 and Fl.sigmas[0] == 1.0
    assert np.isclose(Fr.rhos[0], Fl.rhos[0], rtol=1e-14)
    for F in (Fr, Fl):
        assert factorization_errors(W, thin_q(F), F.R).fro_rel_err <= 1e-14


def test_lsq_via_implicit_q(rng):
    n, m = 70, 6
    W = rng.standard_normal((n, m))
    F = rhqr_left(W, GaussianSketch(28, n - m, 28))
    x = lsq_via_implicit_q(F, W[:, 0])
    assert np.allclose(x, np.eye(m)[:, 0], atol=1e-12)
    # residual of a sketched least-squares solve is sketch-orthogonal to
    # the basis, so its coefficients vanish
    b = rng.standard_normal(n)
    xb = lsq_via_implicit_q(F, b)
    resid = b - W @ xb
    assert np.allclose(lsq_via_implicit_q(F, resid), 0.0, atol=1e-11 * np.linalg.norm(b))


# blake2b digests of lsq_via_implicit_q's solution in a low format, on a
# right-hand side that half cannot represent (so the top block of its sketch
# is not a half value); they go through BLAS and pin its build
LSQ_DIGESTS = {
    "mixed": "826b63373960b200252102b0706525a5",
    "half": "7b446580f14dbc4e8c496873b8eb36b0",
}


@pytest.mark.parametrize("tag", list(LSQ_DIGESTS))
def test_lsq_via_implicit_q_golden_digests(tag):
    policy = policy_from_tag(tag)
    W = gen_cmatrix(256, 24)
    F = rhqr_left(W, SRHTSketch(96, 232, 17), policy=policy)
    b = np.cos(np.arange(256.0)) / 3.0
    x = lsq_via_implicit_q(F, b, policy=policy)
    assert x.shape == (24,)
    digest = hashlib.blake2b(np.ascontiguousarray(x, dtype=np.float64).tobytes(),
                             digest_size=16).hexdigest()
    assert digest == LSQ_DIGESTS[tag]


def test_lsq_single_column(rng):
    w = rng.standard_normal(40)
    b = rng.standard_normal(40)
    F = rhqr_left(w[:, None], GaussianSketch(16, 39, 30))
    x = lsq_via_implicit_q(F, b)
    # direct sketched least squares as the oracle
    sb = F.psi.apply(b)
    direct = np.linalg.lstsq(F.psi.apply(w[:, None]), sb, rcond=None)[0]
    assert x[0] == pytest.approx(direct[0], rel=1e-11)


def test_prefix_consistency(rng):
    n, m = 90, 10
    W = rng.standard_normal((n, m))
    F = rhqr_left(W, SRHTSketch(36, n - m, 32))
    F6 = F.prefix(6)
    errs = factorization_errors(W[:, :6], thin_q(F6), F6.R)
    assert errs.fro_rel_err <= 1e-12
    assert np.allclose(F6.T, t_factor_from_sketches(F6.S), atol=1e-11)


def test_breakdown_on_dependent_column():
    n = 32
    W = np.zeros((n, 2))
    W[0] = 1.0
    with pytest.raises(BreakdownError, match="column 2"):
        rhqr_left(W, GaussianSketch(12, n - 2, 34))


def test_precision_ladder(rng):
    n, m = 128, 10
    W = rng.standard_normal((n, m))
    om = SRHTSketch(40, n - m, 36)
    errs = {}
    for tag in ("half", "single", "double"):
        F = rhqr_left(W, om, policy=policy_from_tag(tag))
        errs[tag] = factorization_errors(W, thin_q(F), F.R).max_col_rel_err
    assert errs["double"] < 1e-13
    assert errs["single"] < 1e-4
    assert errs["half"] < 0.3
    assert errs["double"] < errs["single"] < errs["half"]


def test_mixed_policy_tracks_storage(rng):
    n, m = 128, 10
    W = rng.standard_normal((n, m))
    om = SRHTSketch(40, n - m, 38)
    Fm = rhqr_left(W, om, policy=policy_from_tag("mixed"))
    Fh = rhqr_left(W, om, policy=policy_from_tag("half"))
    em = factorization_errors(W, thin_q(Fm), Fm.R).max_col_rel_err
    eh = factorization_errors(W, thin_q(Fh), Fh.R).max_col_rel_err
    # storage precision sets the error floor; double small-ops cannot be
    # worse than half small-ops by more than a modest factor
    assert em <= eh * 4.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_scaling_modes_agree(seed):
    g = np.random.default_rng(seed)
    W = g.standard_normal((40, 5))
    om = GaussianSketch(16, 35, seed % 997)
    Fa = rhqr_left(W, om)
    Fb = rhqr_left(W, om, scaling=SCALE_UNIT)
    assert np.allclose(Fa.R, Fb.R, atol=1e-11 * np.linalg.norm(Fa.R))
    assert np.allclose(thin_q(Fa), thin_q(Fb), atol=1e-11)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_sketch_isometry(seed):
    g = np.random.default_rng(seed)
    n, m = 30, 4
    psi = EmbeddedSketch(m, GaussianSketch(12, n - m, seed % 991))
    w = g.standard_normal(n)
    step = rh_vector(w, psi.apply(w), 1)
    P = dense_reflector(step.u, dense_embedded_matrix(psi), step.beta)
    x = g.standard_normal(n)
    assert np.linalg.norm(psi.apply(P @ x)) == pytest.approx(
        np.linalg.norm(psi.apply(x)), rel=1e-13)
