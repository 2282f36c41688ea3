import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sketchqr import rhqr, trim
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
    thin_q,
)
from sketchqr.experiments import gen_cmatrix
from sketchqr.sketching import (
    EmbeddedSketch,
    GaussianSketch,
    IdentitySketch,
    SparseSignSketch,
    SRHTSketch,
)
from sketchqr.trim import normalize_leading_columns, trim_rhqr_left, trim_rhqr_right
from oracles import (
    CountingSketch,
    dense_embedded_matrix,
    dense_reflector,
    reflector_scalars,
    t_factor_from_sketches,
)


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
    # every sweep grows T by the recursion; Puglisi's identity
    # S^t S = T^-1 + T^-t must hold for the T it returns
    n, m = 90, 9
    W = rng.standard_normal((n, m))
    om_e = GaussianSketch(36, n - m, 19)
    om = GaussianSketch(36, n, 19)
    for scaling in (SCALE_SQRT2, SCALE_UNIT):
        for F in (rhqr_left(W, om_e, scaling=scaling), rhqr_right(W, om_e, scaling=scaling),
                  rhqr_block(W, om_e, block_size=4, scaling=scaling),
                  trim_rhqr_left(W, om, scaling=scaling), trim_rhqr_right(W, om, scaling=scaling)):
            G = F.S.T @ F.S
            Tinv = np.linalg.inv(F.T)
            assert np.linalg.norm(G - (Tinv + Tinv.T)) <= 1e-12 * np.linalg.norm(G)


@pytest.mark.parametrize("tag", ["double", "single", "mixed", "half"])
def test_block_t_factor_round_trip(rng, tag):
    # rhqr_block builds T's diagonal blocks by the column recursion and the
    # blocks above them by GEMMs after each panel; Puglisi's identity holds
    # for the whole T, ragged final panel included (9 = 4 + 4 + 1 = 2 * 4 + 1)
    n, m = 90, 9
    W = rng.standard_normal((n, m))
    policy = policy_from_tag(tag)
    for om in (GaussianSketch(36, n - m, 19), SRHTSketch(36, n - m, 19)):
        for scaling in (SCALE_SQRT2, SCALE_UNIT):
            for bs in (2, 4):
                F = rhqr_block(W, om, block_size=bs, scaling=scaling, policy=policy)
                G = F.S.T @ F.S
                Tinv = np.linalg.inv(F.T)
                assert (np.linalg.norm(G - (Tinv + Tinv.T))
                        <= 50 * policy.u_high * np.linalg.norm(G))


@pytest.mark.parametrize("tag", ["double", "single", "mixed", "half"])
@pytest.mark.parametrize("scaling", [SCALE_SQRT2, SCALE_UNIT])
@pytest.mark.parametrize("kind", ["srht", "sparse"])
def test_multi_panel_block_agrees_with_left(rng, kind, scaling, tag):
    # the multi-panel sweep reorders the arithmetic (panel updates, the
    # sketch-space image, T's off-diagonal blocks by GEMMs) but computes
    # the same factors; 13 columns leave a ragged final panel at 3 and 5
    n, m = 96, 13
    W = rng.standard_normal((n, m))
    om = SRHTSketch(4 * m, n - m, 7) if kind == "srht" else SparseSignSketch(4 * m, n - m, 7, s=4)
    policy = policy_from_tag(tag)
    ref = rhqr_left(W, om, scaling=scaling, policy=policy)
    for bs in (1, 3, 5):
        F = rhqr_block(W, om, block_size=bs, scaling=scaling, policy=policy)
        for name in ("U", "S", "T", "R"):
            got, want = getattr(F, name), getattr(ref, name)
            assert np.linalg.norm(got - want) <= 20 * policy.u_low * np.linalg.norm(want), \
                (bs, name)


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


@pytest.mark.parametrize("bs", [2.5, "4", None, 4.0])
def test_block_refuses_a_non_integer_block_size(rng, bs):
    W = rng.standard_normal((40, 8))
    with pytest.raises(ValueError, match=f"^block_size={bs!r} must be an integer$"):
        rhqr_block(W, SRHTSketch(32, 32, 1), block_size=bs)


@pytest.mark.parametrize("bs", [4, 7, 20])
def test_block_sketches_each_panel_once(rng, bs):
    n, m = 80, 20
    W = rng.standard_normal((n, m))
    # every panel is sketched once, as a block, in its original columns;
    # then every column but column 0 once more after its update: 2m-1
    # sketched columns, as in rhqr_left
    expected = []
    for j0 in range(0, m, bs):
        b = min(bs, m - j0)
        expected += [b] + [1] * (b if j0 else b - 1)
    assert sum(expected) == 2 * m - 1
    for make in (GaussianSketch, SRHTSketch):
        om = CountingSketch(make(60, n - m, 40))
        rhqr_block(W, om, block_size=bs)
        assert om.widths == expected, make.__name__


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


# blake2b digests of every factor array of the two left sweeps, then of
# each reflector's sigma, rho and beta as read off R and T.  Their
# updates run through BLAS, so the digests pin the numpy/OpenBLAS build as
# well as the sweeps' arithmetic.  The single entries were recorded again
# when float32 products began to read their operands as stored, with no
# packed copy made first (the same at 1, 2 and 4 threads).  The double,
# single and mixed-trim entries were recorded again when every basis store
# became column-major (again the same at 1, 2 and 4 threads).  All were
# recorded again when the SRHT's transform became Kronecker-factored GEMMs
# (the same at 1 and 2 threads).
LEFT_SWEEP_DIGESTS = {
    ("rhqr_left", "double", "sqrt2"): "96908410a2b42e5c379b2c9258e86d6d",
    ("rhqr_left", "double", "unit"): "e8e278e588aa9c023060ee1ae4533272",
    ("rhqr_left", "single", "sqrt2"): "8729e6301f310204136cfc885156aa19",
    ("rhqr_left", "single", "unit"): "08b214f964aa8c5fb1c36b4dbab4ca0f",
    ("rhqr_left", "mixed", "sqrt2"): "67da0f301a600104c66c18bd80257dbd",
    ("rhqr_left", "mixed", "unit"): "72c2cebe333fd1faf109151e0c1ad38d",
    ("rhqr_left", "half", "sqrt2"): "4c0ddf374328595fb6017a9d6160332f",
    ("rhqr_left", "half", "unit"): "1bdc1c7ee44e6b6c6debfae97a6d3e4e",
    ("trim_rhqr_left", "double", "sqrt2"): "c1bcbe25a08d2ed926966d4a13330bff",
    ("trim_rhqr_left", "double", "unit"): "338e108107da61da2419b3c10ae4f509",
    ("trim_rhqr_left", "single", "sqrt2"): "aee23116bcc6ac9baa32f6bf9dc61149",
    ("trim_rhqr_left", "single", "unit"): "33be5853d54e87d3096a3793fdc43c33",
    ("trim_rhqr_left", "mixed", "sqrt2"): "7551ce83715b55ec1b769e8ad051f1f8",
    ("trim_rhqr_left", "mixed", "unit"): "e2a733c52b99b50a66fa3515745d2b41",
    ("trim_rhqr_left", "half", "sqrt2"): "8b4d880f82b3711c3f6cdaaba8b02182",
    ("trim_rhqr_left", "half", "unit"): "60f784da0fbe2b21108be1874ddbca7d",
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
    for a in _factor_arrays(f) + list(reflector_scalars(f.R, f.T)):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    assert h.hexdigest() == LEFT_SWEEP_DIGESTS[case]


@pytest.mark.parametrize("tag", ["double", "single", "mixed", "half"])
@pytest.mark.parametrize("scaling", [SCALE_SQRT2, SCALE_UNIT])
def test_reflector_scalars_are_read_off_r_and_t(monkeypatch, tag, scaling):
    # every column step writes R[c, c] = -sigma rho and T[c, c] = beta from
    # the scalars its reflector builder returns, so R and T give them back
    # bit for bit
    policy = policy_from_tag(tag)
    n, m = 96, 10
    W = gen_cmatrix(n, m)
    om_e = SRHTSketch(40, n - m, 5)
    om = SRHTSketch(24, n, 6)
    sweeps = {
        "rhqr_left": lambda: rhqr_left(W, om_e, scaling=scaling, policy=policy),
        "rhqr_block": lambda: rhqr_block(W, om_e, block_size=4, scaling=scaling, policy=policy),
        "rhqr_right": lambda: rhqr_right(W, om_e, scaling=scaling, policy=policy),
        "trim_rhqr_left": lambda: trim_rhqr_left(W, om, scaling=scaling, policy=policy),
        "trim_rhqr_right": lambda: trim_rhqr_right(W, om, scaling=scaling, policy=policy),
    }
    steps = []
    for mod, name in ((rhqr, "rh_vector"), (trim, "trim_rh_vector")):
        def record(*args, _build=getattr(mod, name), **kwargs):
            step = _build(*args, **kwargs)
            steps.append((step.sigma, step.rho, step.beta))
            return step
        monkeypatch.setattr(mod, name, record)
    for name, sweep in sweeps.items():
        steps.clear()
        F = sweep()
        assert len(steps) == m, name
        for got, want in zip(reflector_scalars(F.R, F.T), np.array(steps).T):
            assert np.array_equal(got, want), name


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
    sigmas, rhos, betas = reflector_scalars(F.R, F.T)
    ref_sigmas, ref_rhos, ref_betas = reflector_scalars(ref.R, ref.aux["T"])
    for got, want in [(F.S, ref.aux["U"]), (F.T, ref.aux["T"]), (F.R, ref.R),
                      (rhos, ref_rhos), (betas, ref_betas)]:
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)
    assert np.array_equal(sigmas, ref_sigmas)


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
    (sr, rr, _), (sl, rl, _) = (reflector_scalars(F.R, F.T) for F in (Fr, Fl))
    assert sr[0] == -1.0 and sl[0] == 1.0
    assert np.isclose(rr[0], rl[0], rtol=1e-14)
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
# is not a half value); they go through BLAS and pin its build, and were
# recorded again when the SRHT's transform became Kronecker-factored GEMMs
LSQ_DIGESTS = {
    "mixed": "97181569672a9faac44e7487fc5d327c",
    "half": "7b5b0f6343ec14755cfa92cdbc88c0a2",
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
