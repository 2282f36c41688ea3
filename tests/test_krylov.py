import hashlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse

from sketchqr import krylov
from sketchqr.krylov import (
    arnoldi_q,
    hessenberg_lstsq,
    rgs_arnoldi,
    rgs_gmres,
    rhqr_arnoldi,
    rhqr_gmres,
)
from sketchqr.experiments import ExperimentConfig, run_gmres_experiment
from sketchqr.linalg import BreakdownError, orthogonality_error
from sketchqr.precision import policy_from_tag, round_to
from sketchqr.sketching import GaussianSketch, IdentitySketch, SRHTSketch, check_embedding

from oracles import householder_arnoldi, mgs_gmres


def spd_system(rng, n=300):
    Q0 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q0 @ np.diag(np.logspace(0, 4, n)) @ Q0.T
    b = rng.standard_normal(n)
    return A, b


def test_hessenberg_reachable_rhs():
    y, resid, _ = hessenberg_lstsq(np.array([[1.0], [0.0]]), 2.0)
    assert y[0] == pytest.approx(2.0, abs=1e-15)
    assert resid == 0.0


def test_hessenberg_unreachable_rhs():
    y, resid, _ = hessenberg_lstsq(np.array([[0.0], [1.0]]), 1.0)
    assert y[0] == 0.0
    assert resid == pytest.approx(1.0, abs=1e-15)


def test_hessenberg_matches_dense_least_squares(rng):
    H = np.triu(rng.standard_normal((11, 10)), -1)
    beta = 1.7
    y, resid, _ = hessenberg_lstsq(H, beta)
    e1 = np.zeros(11)
    e1[0] = beta
    yref, res2, *_ = np.linalg.lstsq(H, e1, rcond=None)
    assert np.allclose(y, yref, atol=1e-12)
    assert resid == pytest.approx(np.linalg.norm(e1 - H @ yref), abs=1e-12)


def test_hessenberg_optimality(rng):
    H = np.triu(rng.standard_normal((9, 8)), -1)
    beta = -0.4
    y, resid, _ = hessenberg_lstsq(H, beta)
    e1 = np.zeros(9)
    e1[0] = beta
    for _ in range(100):
        trial = y + rng.standard_normal(8) * 10.0 ** rng.integers(-8, 2)
        assert resid <= np.linalg.norm(e1 - H @ trial) + 1e-12


def test_hessenberg_history_is_monotone(rng):
    H = np.triu(rng.standard_normal((13, 12)), -1)
    y, resid, hist = hessenberg_lstsq(H, 3.0)
    assert hist[0] == 3.0
    assert np.all(np.diff(hist) <= 1e-14)
    assert hist[-1] == pytest.approx(resid, abs=1e-15)


def test_hessenberg_history_counts_the_entries_skipped_rotations_leave():
    # a zero subcolumn reduces no entry of beta e_1: the residual stays |beta|
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        y, resid, hist = hessenberg_lstsq(np.zeros((4, 3)), 2.0)
    assert (list(y), resid, list(hist)) == ([0.0] * 3, 2.0, [2.0] * 4)


def test_hessenberg_refuses_a_shape_that_is_not_k_plus_1_by_k():
    for H in (np.eye(2), np.ones(3), np.ones((3, 1))):
        with pytest.raises(ValueError, match=re.escape(f"got shape {H.shape}")):
            hessenberg_lstsq(H, 1.0)
    y, resid, hist = hessenberg_lstsq(np.zeros((1, 0)), -2.5)
    assert (y.shape, resid, list(hist)) == ((0,), 2.5, [2.5])


@pytest.mark.parametrize("H, y_want, zeroed", [
    # rank 2 with a zero on the diagonal: the rotations leave no zero pivot
    ([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [0.0, 0.5], False),
    # rank 1 with no zero on the diagonal: the rotated pivot of column 2 is 0
    ([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]], [0.5, 0.0], True),
])
def test_gmres_warns_exactly_when_a_coordinate_is_zeroed(H, y_want, zeroed):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x, _ = krylov._gmres_solve(np.array(H), 1.0, np.zeros(3), lambda y: np.eye(3, 2) @ y)
    assert any("rank deficient" in str(w.message) for w in caught) == zeroed
    np.testing.assert_allclose(x[:2], y_want, atol=1e-15)


def test_arnoldi_identity_operator_closes_at_one(rng):
    b = rng.standard_normal(30)
    bun = rhqr_arnoldi(np.eye(30), b, None, 5, GaussianSketch(24, 24, 1))
    assert bun.breakdown == 1
    assert bun.H.shape == (2, 1)
    assert abs(bun.H[0, 0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(bun.H[1, 0]) <= 1e-12
    assert arnoldi_q(bun, bun.dim).shape[1] == 1


def test_arnoldi_identity_embedding_matches_householder_oracle(rng):
    A = np.diag(np.arange(1.0, 21.0))
    b = rng.standard_normal(20)
    bun = rhqr_arnoldi(A, b, np.zeros(20), 5, IdentitySketch(14))
    Qo, Ho = householder_arnoldi(A, b, np.zeros(20), 5)
    assert np.abs(bun.H - Ho).max() <= 1e-12
    assert np.abs(arnoldi_q(bun, 5) - Qo).max() <= 1e-12


def test_arnoldi_relation_and_sketched_orthogonality(rng):
    n, m = 500, 30
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    A[rng.random((n, n)) < 0.9] = 0.0
    b = rng.standard_normal(n)
    bun = rhqr_arnoldi(A, b, None, m, GaussianSketch(4 * (m + 1), n - m - 1, 2))
    assert bun.breakdown is None
    Qm1 = arnoldi_q(bun, m + 1)
    rel = np.linalg.norm(A @ arnoldi_q(bun, m) - Qm1 @ bun.H)
    assert rel <= 1e-12 * np.linalg.norm(A)
    assert orthogonality_error(bun.psi.apply(Qm1)) <= 1e-10
    assert np.abs(np.tril(bun.H, -2)).max() == 0.0


def test_arnoldi_first_column_spans_residual(rng):
    n = 80
    A = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    bun = rhqr_arnoldi(A, b, x0, 6, GaussianSketch(40, n - 7, 3))
    r0 = b - A @ x0
    assert np.allclose(arnoldi_q(bun, 1)[:, 0] * bun.beta, r0, atol=1e-12 * np.linalg.norm(r0))
    assert abs(bun.beta) == pytest.approx(np.linalg.norm(bun.psi.apply(r0)), rel=1e-12)


def test_arnoldi_invariant_subspace_breakdown(rng):
    n = 50
    A = np.zeros((n, n))
    A[:3, :3] = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    A[3:, 3:] = rng.standard_normal((n - 3, n - 3))
    b = np.zeros(n)
    b[:3] = [1.0, 2.0, -1.0]
    bun = rhqr_arnoldi(A, b, None, 8, GaussianSketch(36, n - 9, 4))
    assert bun.breakdown == 3
    assert bun.H.shape == (4, 3)
    x, hist = rhqr_gmres(A, b, None, 8, GaussianSketch(36, n - 9, 4))
    xref = np.zeros(n)
    xref[:3] = np.linalg.solve(A[:3, :3], b[:3])
    assert np.allclose(x, xref, atol=1e-10)


def test_gmres_identity_solves_in_one_step(rng):
    b = rng.standard_normal(40)
    x, hist = rhqr_gmres(np.eye(40), b, None, 1, GaussianSketch(16, 38, 3))
    assert np.linalg.norm(x - b) <= 1e-13 * np.linalg.norm(b)
    assert hist[-1] <= 1e-12 * np.linalg.norm(b)


def test_gmres_quasi_optimal_against_mgs(rng):
    A, b = spd_system(rng)
    n, m = 300, 50
    om = SRHTSketch(4 * (m + 1), n - m - 1, 7)
    x, hist = rhqr_gmres(A, b, None, m, om)
    xo, _ = mgs_gmres(A, b, np.zeros(n), m)
    basis = np.linalg.qr(rng.standard_normal((n - m - 1, m + 1)))[0]
    eps = check_embedding(om, basis)
    bound = (1.0 + eps) / (1.0 - eps)
    assert np.linalg.norm(b - A @ x) <= bound * np.linalg.norm(b - A @ xo) + 1e-10
    assert np.all(np.diff(hist) <= 1e-12 * hist[0])


def test_gmres_sketched_residual_matches_hessenberg(rng):
    n, m = 200, 25
    A = rng.standard_normal((n, n)) / np.sqrt(n) + 2 * np.eye(n)
    b = rng.standard_normal(n)
    om = GaussianSketch(4 * (m + 1), n - m - 1, 9)
    x, hist = rhqr_gmres(A, b, None, m, om)
    bun = rhqr_arnoldi(A, b, None, m, om)
    sk = np.linalg.norm(bun.psi.apply(b - A @ x))
    assert sk == pytest.approx(hist[-1], abs=1e-12 * hist[0])


def test_gmres_exact_start_returns_x0(rng):
    n = 30
    A = rng.standard_normal((n, n)) + 4 * np.eye(n)
    x_true = rng.standard_normal(n)
    b = A @ x_true
    # integer-free exact residual zero: start from the true solution
    x, hist = rhqr_gmres(A, b, x_true, 4, GaussianSketch(24, n - 5, 11))
    assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)


def test_gmres_zero_operator_flags_rank_deficiency(rng):
    b = rng.standard_normal(12)
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        x, hist = rhqr_gmres(np.zeros((12, 12)), b, None, 3, GaussianSketch(12, 8, 13))
    assert np.allclose(x, 0.0)


def test_gmres_single_precision_still_converges(rng):
    n, m = 200, 40
    Q0 = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q0 @ np.diag(np.logspace(0, 1, n)) @ Q0.T
    b = rng.standard_normal(n)
    om = SRHTSketch(4 * (m + 1), n - m - 1, 17)
    x, hist = rhqr_gmres(A, b, None, m, om, policy=policy_from_tag("single"))
    xd, histd = rhqr_gmres(A, b, None, m, om)
    # the single run tracks the double one until it bottoms out near u_single
    assert np.linalg.norm(b - A @ xd) <= 1e-9 * np.linalg.norm(b)
    assert np.linalg.norm(b - A @ x) <= 1e-4 * np.linalg.norm(b)
    assert np.all(hist[:10] <= histd[:10] + 1e-4 * hist[0])


def test_rgs_arnoldi_relation(rng):
    n, m = 300, 25
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    Q, H, beta, attained = rgs_arnoldi(A, b, None, m, SRHTSketch(4 * (m + 1), n, 19))
    assert attained is None
    rel = np.linalg.norm(A @ Q[:, :m] - Q @ H)
    assert rel <= 1e-12 * np.linalg.norm(A)
    assert beta == pytest.approx(np.linalg.norm(b) , rel=0.5)


@pytest.mark.parametrize("tag", ["single", "mixed"])
def test_arnoldi_bases_are_stored_in_low_precision(rng, tag):
    n, m = 200, 15
    A = rng.standard_normal((n, n)) / np.sqrt(n) + 2.0 * np.eye(n)
    b = rng.standard_normal(n)
    policy = policy_from_tag(tag)
    Q, H, beta, attained = rgs_arnoldi(A, b, None, m, SRHTSketch(4 * (m + 1), n, 23),
                                       policy=policy)
    assert attained is None and Q.dtype == np.float64
    assert np.array_equal(Q, round_to(Q, policy.low))
    bun = rhqr_arnoldi(A, b, None, m, SRHTSketch(4 * (m + 1), n - m - 1, 23), policy=policy)
    assert bun.U.dtype == np.float64
    assert np.array_equal(bun.U, round_to(bun.U, policy.low))


def test_rgs_gmres_identity_operator(rng):
    b = rng.standard_normal(35)
    x, hist = rgs_gmres(np.eye(35), b, None, 1, GaussianSketch(20, 35, 3))
    assert np.linalg.norm(x - b) <= 1e-12 * np.linalg.norm(b)


def test_rgs_gmres_parity_with_rhqr(rng):
    A, b = spd_system(rng)
    n, m = 300, 50
    x, hist = rhqr_gmres(A, b, None, m, SRHTSketch(4 * (m + 1), n - m - 1, 7))
    xr, hr = rgs_gmres(A, b, None, m, SRHTSketch(4 * (m + 1), n, 8))
    assert hr.shape == hist.shape
    assert np.all(hr[1:] <= 10.0 * hist[1:] + 1e-12 * hist[0])
    assert np.all(hist[1:] <= 10.0 * hr[1:] + 1e-12 * hist[0])


def test_rgs_gmres_identity_embedding_matches_mgs(rng):
    n, m = 120, 30
    A = rng.standard_normal((n, n)) / np.sqrt(n) + 1.5 * np.eye(n)
    b = rng.standard_normal(n)
    x, hist = rgs_gmres(A, b, None, m, IdentitySketch(n))
    xo, ro = mgs_gmres(A, b, np.zeros(n), m)
    assert np.linalg.norm(x - xo) <= 1e-10 * np.linalg.norm(xo)
    assert hist[-1] == pytest.approx(ro, abs=1e-10 * np.linalg.norm(b))


def test_arnoldi_q_agrees_with_the_matvec_inputs(rng):
    n, m = 90, 10
    A = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    seen = []

    def op(v):
        seen.append(v.copy())
        return A @ v

    bun = rhqr_arnoldi(op, b, None, m, GaussianSketch(48, n - m - 1, 21))
    # the first call forms r0 = b - A x0, the next m apply A to the q_j
    # extracted through Psi e_j = e_j
    assert len(seen) == m + 1
    Q = arnoldi_q(bun, m)
    assert np.abs(np.stack(seen[1:], axis=1) - Q).max() <= 1e-13
    with pytest.raises(ValueError):
        arnoldi_q(bun, m + 5)


def _krylov_operator(name):
    rng = np.random.default_rng(31)
    n = 160
    if name == "dense":
        return rng.standard_normal((n, n)) / np.sqrt(n) + 2.0 * np.eye(n), rng.standard_normal(n)
    if name == "sparse":
        A = scipy.sparse.random(n, n, density=0.05, random_state=31) + 2.0 * scipy.sparse.identity(n)
        return A.tocsr(), rng.standard_normal(n)
    return (np.eye(n) if name == "identity" else np.zeros((n, n))), rng.standard_normal(n)


def _krylov_digest(case):
    what, op, tag, scaling = case
    A, b = _krylov_operator(op)
    n, m = b.shape[0], 12
    policy = policy_from_tag(tag)
    h = hashlib.blake2b(digest_size=16)

    def put(*arrays):
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if what == "rhqr_arnoldi":
            bun = rhqr_arnoldi(A, b, None, m, SRHTSketch(4 * (m + 1), n - m - 1, 41),
                               scaling=scaling, policy=policy)
            put(bun.U, bun.S, bun.T, bun.H, [bun.beta],
                [-1 if bun.breakdown is None else bun.breakdown])
        elif what == "rhqr_gmres":
            put(*rhqr_gmres(A, b, None, m, SRHTSketch(4 * (m + 1), n - m - 1, 41),
                            scaling=scaling, policy=policy))
        elif what == "rgs_gmres":
            put(*rgs_gmres(A, b, None, m, GaussianSketch(4 * (m + 1), n, 43), policy=policy))
        else:
            cfg = ExperimentConfig(algo=what.split(":")[1], sketch="gauss", seed=45,
                                   precision=tag, scaling=scaling, deterministic=True)
            for row in run_gmres_experiment(A, b, m, cfg):
                put(row[:-1])
                h.update(row.status.encode())
    return h.hexdigest()


# blake2b digests of the Arnoldi factors and GMRES outputs.  Like the sweep
# digests in test_rhqr.py they go through BLAS, so they also pin the
# numpy/OpenBLAS build.  "identity" closes the Krylov space after one step
# and "zero" has a zero Hessenberg column.  The dense single entries were
# recorded again when float32 products began to read their operands as
# stored, with no packed copy made first (the same at 1, 2 and 4 threads).
# The dense double and single RHQR entries, the dense rgs_gmres entries and
# the sparse runner entries were recorded again when every basis store
# became column-major, so that U and Q come back with leading dimension n
# (the same at 1, 2 and 4 threads).  The 19 entries that moved when the
# SRHT's transform became Kronecker-factored GEMMs were recorded again (the
# same at 1 and 2 threads).  The two sparse runner entries were recorded
# again when the runner came to read every iteration's relation_err and
# cond_basis off one relation residual and one R of the basis: in double
# relation_err is rounding noise and moves, cond_basis moves in its last
# digits, and the residuals hold (the same at 1 and 2 threads).  The two
# zero-operator GMRES entries were recorded again when hessenberg_lstsq
# came to count the right-hand-side entry a skipped rotation leaves: their
# residual histories read |beta| where they read 0 (the same at 1 and 2
# threads).
KRYLOV_DIGESTS = {
    ("rhqr_arnoldi", "dense", "double", "sqrt2"): "bbb005b979d905b6688ec5b4bcb6337f",
    ("rhqr_arnoldi", "dense", "double", "unit"): "2c3aca388dedafcd2b34fb63f58ee297",
    ("rhqr_arnoldi", "dense", "single", "sqrt2"): "4467916b01988fa976304b6aba35742b",
    ("rhqr_arnoldi", "dense", "single", "unit"): "5ed11ac7a0f14ffc65ec35dacf9d251b",
    ("rhqr_arnoldi", "dense", "mixed", "sqrt2"): "badb20f1ad63b60617d983080d9a4b2d",
    ("rhqr_arnoldi", "dense", "mixed", "unit"): "81489ab3fe3d332110b07b33acd4bf54",
    ("rhqr_arnoldi", "dense", "half", "sqrt2"): "ebc753ff3cddc1d0f1edd597d50fe45e",
    ("rhqr_arnoldi", "dense", "half", "unit"): "9ca557cb50b36df76a408e1b340d7e61",
    ("rhqr_arnoldi", "identity", "double", "sqrt2"): "0ce90661236022384c57949da31a8fa0",
    ("rhqr_arnoldi", "zero", "double", "sqrt2"): "3c4b0e656c6754f0dd805acaa85068fb",
    ("rhqr_gmres", "dense", "double", "sqrt2"): "1b236f435d1c54ff3ed78c87e68dca33",
    ("rhqr_gmres", "dense", "double", "unit"): "92edb511201f54668a91aad942147ea6",
    ("rhqr_gmres", "dense", "single", "sqrt2"): "9978fa6baeb3c6a951a3c98f695c2511",
    ("rhqr_gmres", "dense", "single", "unit"): "ed8bd0af0f2fd3dd5d3f0e32a410c439",
    ("rhqr_gmres", "dense", "mixed", "sqrt2"): "1d8c18650dfa643f2f4f7ca95c14b862",
    ("rhqr_gmres", "dense", "mixed", "unit"): "3471edc61bf687b37eeff002911b8fd6",
    ("rhqr_gmres", "dense", "half", "sqrt2"): "bd10941da85a82646e0d24b554cd1c20",
    ("rhqr_gmres", "dense", "half", "unit"): "a167f37ac50e44e159ddf0fbd35a2213",
    ("rhqr_gmres", "identity", "double", "sqrt2"): "d952ee133e2a49a4d7bce41d34319dbe",
    ("rhqr_gmres", "zero", "double", "unit"): "963b57bdedc21eb589d0d772b69d2fd6",
    ("rgs_gmres", "dense", "double", "-"): "308abd81c1b9b4c09851c2cdbfeeca9f",
    ("rgs_gmres", "dense", "single", "-"): "1925925d687c246447af7b1c369bf80e",
    ("rgs_gmres", "dense", "mixed", "-"): "8f8ea7877046d8b21d1dce793664df91",
    ("rgs_gmres", "dense", "half", "-"): "118f6a71255bf4f1a631719b5e33743f",
    ("rgs_gmres", "identity", "double", "-"): "f88284cc365b81fdd4c6f4856c8d1765",
    ("rgs_gmres", "zero", "double", "-"): "a98de22a21e2be5d397d8f2dcfa6ffd3",
    ("run_gmres_experiment:rhqr", "sparse", "double", "sqrt2"): "7e0b0dc1c25de385d977ccae3f72fb34",
    ("run_gmres_experiment:rhqr", "identity", "double", "unit"): "71f88b3e7f5343aa869c1a7b3cc612fc",
    ("run_gmres_experiment:rgs", "sparse", "double", "sqrt2"): "370866d74ed0566b27bb0c3390132ee4",
    ("run_gmres_experiment:rgs", "identity", "double", "sqrt2"): "ef4e50ab27d08cbdb686724e5e23ab45",
}


@pytest.mark.parametrize("case", list(KRYLOV_DIGESTS), ids="-".join)
def test_krylov_golden_digests(case):
    assert _krylov_digest(case) == KRYLOV_DIGESTS[case]


@pytest.mark.parametrize("tag", ["double", "single", "mixed"])
@pytest.mark.parametrize("step", [1, 4])
@pytest.mark.parametrize("solver", ["rhqr_arnoldi", "rgs_arnoldi", "rhqr_gmres", "rgs_gmres"])
def test_krylov_refuses_nonfinite_columns(solver, step, tag):
    # the k-th matvec forms column k of the Krylov matrix; the first forms r0
    n, m = 64, 6
    A = np.diag(np.linspace(1.0, 2.0, n))
    calls = []

    def matvec(v):
        calls.append(v)
        out = A @ v
        if len(calls) == step:
            out[n // 3] = np.inf
        return out

    rows = n - m - 1 if solver.startswith("rhqr") else n
    with pytest.raises(BreakdownError) as info:
        getattr(krylov, solver)(matvec, np.ones(n), None, m, GaussianSketch(28, rows, 5),
                                policy=policy_from_tag(tag))
    assert (info.value.reason, info.value.column) == ("nonfinite_input", step)
    assert len(calls) == step


@pytest.mark.parametrize("solver", ["rhqr_arnoldi", "rgs_arnoldi"])
def test_arnoldi_words_sketch_faults_as_the_factorizations(solver):
    # the basis of m iterations holds m + 1 columns
    n, m = 64, 6
    need = n - m - 1 if solver == "rhqr_arnoldi" else n
    run = getattr(krylov, solver)
    with pytest.raises(ValueError) as info:
        run(np.eye(n), np.ones(n), None, m, GaussianSketch(28, need + 1, 5))
    assert str(info.value) == f"sketch takes {need + 1} coordinates, expected {need}"
    with pytest.raises(ValueError) as info:
        run(np.eye(n), np.ones(n), None, m, GaussianSketch(m, need, 5))
    assert str(info.value) == f"sampling size ell={m} is below {m + 1} columns"


@pytest.mark.parametrize("solver", ["rhqr_arnoldi", "rgs_arnoldi", "rhqr_gmres", "rgs_gmres"])
def test_krylov_refuses_bad_input_before_a_matvec(solver):
    # each fault is named by a ValueError before A is applied
    n, m = 64, 6
    rows = n - m - 1 if solver.startswith("rhqr") else n
    calls = []

    def matvec(v):
        calls.append(v)
        return v

    cases = [
        ((matvec, np.ones(n), None, -1), "m=-1 must be >= 0"),
        ((matvec, np.ones(n), None, 4.0), "m=4.0 must be an integer"),
        ((matvec, np.ones((n, 1)), None, m), "b must be a vector, got 2 dimensions"),
        ((matvec, np.ones(n), np.zeros(n - 1), m), f"x0 must have b's length {n}, got shape"),
        ((np.eye(n, n - 1), np.ones(n), None, m), f"A must be {n} x {n} for b of length {n}"),
        ((scipy.sparse.eye_array(n + 1), np.ones(n), None, m), f"A must be {n} x {n}"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            getattr(krylov, solver)(*args, GaussianSketch(28, rows, 5))
    assert calls == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scale", [510, 520, 1000])
def test_rgs_arnoldi_norm_overflow_is_a_breakdown(scale):
    # a finite start vector whose sketched norm overflows: the space does
    # not close on inf <= 32 u inf, it breaks down at column 1
    n = 64
    b = np.linspace(1.0, 2.0, n) * 2.0 ** scale
    with pytest.raises(BreakdownError) as info:
        rgs_arnoldi(np.eye(n), b, None, 4, GaussianSketch(28, n, 5))
    assert (info.value.reason, info.value.column) == ("scale_nonfinite", 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("solver", [rhqr_arnoldi, rhqr_gmres], ids=lambda f: f.__name__)
def test_rhqr_arnoldi_norm_overflow_is_a_breakdown(solver):
    # the RGS case above at 2**520: the RHQR process must not close the
    # space on inf <= 32 u inf either (the close rule's breakdown 0, an
    # empty H and beta 0.0)
    n, m = 64, 4
    b = np.linspace(1.0, 2.0, n) * 2.0 ** 520
    with pytest.raises(BreakdownError) as info:
        solver(np.eye(n), b, None, m, GaussianSketch(28, n - m - 1, 5))
    assert (info.value.reason, info.value.column) == ("scale_nonfinite", 1)


def _noncanonical_csc(n=150, per_col=6, seed=53):
    """A CSC operator in the form a CSC product must handle: each column's
    rows unsorted and one of them stored twice, with a unit shift on the
    diagonal.  Its squares summed in CSR order differ from their CSC sum in
    the last bit, so the runner's norm of A is seen to be read one way."""
    rng = np.random.default_rng(seed)
    indices, data = [], []
    for j in range(n):
        rows = rng.choice(n, per_col, replace=False)
        rows = np.append(rng.permutation(np.append(rows[rows != j], j)), rows[0])
        vals = rng.standard_normal(rows.shape[0]) / np.sqrt(per_col)
        vals[rows == j] += 1.0
        indices.append(rows)
        data.append(vals)
    indptr = np.cumsum([0] + [r.shape[0] for r in indices])
    A = scipy.sparse.csc_array((np.concatenate(data), np.concatenate(indices), indptr),
                               shape=(n, n))
    assert not A.has_canonical_format
    return A, rng.standard_normal(n)


def _bits(out):
    """Every bit of a solver's output, as one bytes string."""
    if isinstance(out, krylov.KrylovBundle):
        out = (out.U, out.S, out.T, out.H, out.beta, out.breakdown)
    if isinstance(out, (tuple, list)):
        return b"|".join(_bits(o) for o in out)
    if isinstance(out, str) or out is None:
        return str(out).encode()
    return np.ascontiguousarray(out).tobytes() + str(np.asarray(out).dtype).encode()


@pytest.mark.parametrize("tag", ["double", "single"])
def test_a_sparse_operator_gives_the_bits_of_its_csc_product(tag):
    # CSR adds each row's products in the column order CSC's scatter does:
    # a matrix as CSC, as CSR and behind a callable gives one set of bits,
    # and the caller's matrix is left as it came
    A, b = _noncanonical_csc()
    n, m = b.shape[0], 10
    policy = policy_from_tag(tag)
    fields = (A.data.copy(), A.indices.copy(), A.indptr.copy())
    forms = {"csc": A, "csr": A.tocsr(), "callable": lambda v: A @ v}
    runs = {
        "rhqr_arnoldi": lambda op: rhqr_arnoldi(op, b, None, m, GaussianSketch(44, n - m - 1, 3),
                                                policy=policy),
        "rhqr_gmres": lambda op: rhqr_gmres(op, b, None, m, GaussianSketch(44, n - m - 1, 3),
                                            policy=policy),
        "rgs_arnoldi": lambda op: rgs_arnoldi(op, b, None, m, GaussianSketch(44, n, 4),
                                              policy=policy),
        "rgs_gmres": lambda op: rgs_gmres(op, b, None, m, GaussianSketch(44, n, 4), policy=policy),
    }
    for algo in ("rhqr", "rgs"):
        cfg = ExperimentConfig(algo=algo, sketch="gauss", seed=45, precision=tag,
                               deterministic=True)
        runs[f"run_gmres_experiment:{algo}"] = (
            lambda op, cfg=cfg: run_gmres_experiment(op, b, m, cfg))
    for name, run in runs.items():
        # the runner has no Frobenius norm of a callable and refuses one
        ways = ["csc", "csr"] if name.startswith("run_") else list(forms)
        got = {way: _bits(run(forms[way])) for way in ways}
        assert all(bits == got["csc"] for bits in got.values()), name
        assert A.format == "csc", name
        for before, now in zip(fields, (A.data, A.indices, A.indptr)):
            assert now.tobytes() == before.tobytes(), name


def test_krylov_operators_in_other_sparse_formats():
    # a CSR operator is applied as given, with no copy; a COO one is
    # converted (its duplicates summed), and the caller's COO is not touched
    A, b = _noncanonical_csc()
    C = A.tocsr()
    assert krylov._operand(C) is C
    coo = A.tocoo()
    row, col, data = coo.row.copy(), coo.col.copy(), coo.data.copy()
    n, m = b.shape[0], 10
    x_coo, hist_coo = rhqr_gmres(coo, b, None, m, GaussianSketch(44, n - m - 1, 3))
    x_csc, hist_csc = rhqr_gmres(A, b, None, m, GaussianSketch(44, n - m - 1, 3))
    np.testing.assert_allclose(x_coo, x_csc, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(hist_coo, hist_csc, rtol=1e-12, atol=1e-12)
    assert coo.format == "coo"
    assert all(np.array_equal(a, c) for a, c in ((coo.row, row), (coo.col, col), (coo.data, data)))


@pytest.mark.parametrize("fmt", ["csc", "csr"])
@pytest.mark.parametrize("tag", ["double", "single"])
def test_gmres_solvers_stay_within_their_memory_budget(tag, fmt):
    # traced numpy allocations of one solve beyond its basis (the store in
    # policy.low and, below double, the float64 copy returned) and, for a
    # CSC operator, the one CSR copy made for the matvec, in n-vectors of
    # float64: measured 6.0 (rhqr) and 4.2 (rgs) in double and 3.4 and 2.2
    # in single for CSC, and within 0.1 of these for CSR
    n, m, k = 4000, 20, 10
    rng = np.random.default_rng(8)
    A = scipy.sparse.csc_array((rng.normal(0.0, k ** -0.5, n * k),
                                (np.repeat(np.arange(n), k), rng.integers(0, n, n * k))),
                               shape=(n, n))
    A = (A + 1.4 * scipy.sparse.eye_array(n, format="csc")).asformat(fmt)
    b = rng.standard_normal(n)
    policy = policy_from_tag(tag)
    item = np.dtype(policy.low_dtype).itemsize
    basis = n * (m + 1) * (item + (8 if item < 8 else 0))
    C = A.tocsr()
    copy = 0 if fmt == "csr" else C.data.nbytes + C.indices.nbytes + C.indptr.nbytes
    om_e, om = GaussianSketch(4 * (m + 1), n - m - 1, 1), GaussianSketch(4 * (m + 1), n, 2)
    for name, call in {"rhqr_gmres": lambda: rhqr_gmres(A, b, None, m, om_e, policy=policy),
                       "rgs_gmres": lambda: rgs_gmres(A, b, None, m, om, policy=policy)}.items():
        call()  # the sketches keep their operands per dtype: warm them first
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start - basis - copy) / (8 * n) <= 8.0, name
