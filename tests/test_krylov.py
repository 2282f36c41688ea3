import hashlib
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
# (the same at 1, 2 and 4 threads).
KRYLOV_DIGESTS = {
    ("rhqr_arnoldi", "dense", "double", "sqrt2"): "4609f792c74572ddb65b9b0ca1c8f855",
    ("rhqr_arnoldi", "dense", "double", "unit"): "6e4011cac703f28cb9ce9d987f83cdda",
    ("rhqr_arnoldi", "dense", "single", "sqrt2"): "6f89fd6b4c3e1ca3e6ebc468cb291d3e",
    ("rhqr_arnoldi", "dense", "single", "unit"): "93346d0d89b023f48942fcba4b0c6477",
    ("rhqr_arnoldi", "dense", "mixed", "sqrt2"): "93ccd2201d21c45dcd3d7adc53d518f1",
    ("rhqr_arnoldi", "dense", "mixed", "unit"): "b182c43f5cd306626bbe31d32d24d30e",
    ("rhqr_arnoldi", "dense", "half", "sqrt2"): "8f4a227c0a734fd240a99a6f2360e095",
    ("rhqr_arnoldi", "dense", "half", "unit"): "d0138d44263e4945806f23fc42b810cf",
    ("rhqr_arnoldi", "identity", "double", "sqrt2"): "d8420839c5f62f339109981afbf937e8",
    ("rhqr_arnoldi", "zero", "double", "sqrt2"): "827b077cad2328eec446a046f0e25ad6",
    ("rhqr_gmres", "dense", "double", "sqrt2"): "e9d7a2a5239455608cf61ba57c7a6d45",
    ("rhqr_gmres", "dense", "double", "unit"): "1ab12dc6a64d626ee245b39af5ed4285",
    ("rhqr_gmres", "dense", "single", "sqrt2"): "7b462c7686da0bb3b710b778a92bdc7f",
    ("rhqr_gmres", "dense", "single", "unit"): "7ca5b52435040b653fe2d851dd79c1c5",
    ("rhqr_gmres", "dense", "mixed", "sqrt2"): "f4b48f88ce333812207db42bbe6d6a70",
    ("rhqr_gmres", "dense", "mixed", "unit"): "78378c17b4ccfd14785ae379cab2d569",
    ("rhqr_gmres", "dense", "half", "sqrt2"): "32aa00dbf9eb03510252a34c5e469fba",
    ("rhqr_gmres", "dense", "half", "unit"): "026de61dd434a9ce0d2b800e346ed1c5",
    ("rhqr_gmres", "identity", "double", "sqrt2"): "8b621486063adb71db4119ed3e4a008e",
    ("rhqr_gmres", "zero", "double", "unit"): "4b9d4c30d38a4b087c3b747491e2d812",
    ("rgs_gmres", "dense", "double", "-"): "308abd81c1b9b4c09851c2cdbfeeca9f",
    ("rgs_gmres", "dense", "single", "-"): "1925925d687c246447af7b1c369bf80e",
    ("rgs_gmres", "dense", "mixed", "-"): "8f8ea7877046d8b21d1dce793664df91",
    ("rgs_gmres", "dense", "half", "-"): "118f6a71255bf4f1a631719b5e33743f",
    ("rgs_gmres", "identity", "double", "-"): "f88284cc365b81fdd4c6f4856c8d1765",
    ("rgs_gmres", "zero", "double", "-"): "4a0e7e53d9a2e55d3a8c38cded5c9ddd",
    ("run_gmres_experiment:rhqr", "sparse", "double", "sqrt2"): "19a5a3ef2caa268bffc12e7042cd97a8",
    ("run_gmres_experiment:rhqr", "identity", "double", "unit"): "71f88b3e7f5343aa869c1a7b3cc612fc",
    ("run_gmres_experiment:rgs", "sparse", "double", "sqrt2"): "0ca160755cc0515b4992ea8e745faa35",
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
