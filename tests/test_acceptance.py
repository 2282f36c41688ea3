"""Acceptance suite: one test per numbered shipping criterion.

Each test measures the quantities its criterion pins (tolerances inlined,
wall-clock budget included) and funnels them through report(), which prints
a single PASS/FAIL line with the measured values before asserting.  Known
shortfalls are documented in the repository notes; the tests state the
required bound verbatim and fail honestly when the measured value misses it.

Desk-scale runs share module fixtures: the oscillatory 4096x300 matrix, one
full randomized Householder sweep of it, and its per-prefix condition
numbers.  Fixture build time is charged to every consuming criterion's
budget (conservatively), so the asserted times are upper bounds.
"""

import time

import numpy as np
import pytest
import scipy.sparse

from sketchqr.baselines import (
    blas2_corrected_sketch,
    blas2_rgs,
    householder_qr,
    rand_cholesky_qr,
    rgs,
)
from sketchqr.experiments import gen_cmatrix, sample_widths
from sketchqr.krylov import arnoldi_q, hessenberg_lstsq, rhqr_arnoldi
from sketchqr.linalg import cond_number, factorization_errors, orthogonality_error
from sketchqr.precision import UNIT_ROUNDOFF, policy_from_tag, round_to
from sketchqr.rhqr import (
    apply_reflectors_compact,
    rec_rhqr,
    rhqr_block,
    rhqr_left,
    rhqr_right,
    thin_q,
)
from sketchqr.sketching import (
    GaussianSketch,
    IdentitySketch,
    SRHTSketch,
    check_embedding,
    fwht,
)
from sketchqr.trim import (
    normalize_leading_columns,
    trim_rhqr_left,
    trim_rhqr_right,
    trim_thin_q,
)
from oracles import dense_operator_matrix, hadamard_reference, mgs_arnoldi

U_DOUBLE = policy_from_tag("double").u_high
U_SINGLE = policy_from_tag("single").u_high
JS = sample_widths(300, 25)


def report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.fixture(scope="module")
def desk():
    return gen_cmatrix(4096, 300)


@pytest.fixture(scope="module")
def desk_rhqr_metrics(desk):
    """One double-precision randomized Householder run of the desk matrix
    (srht l=1200 seed 43) sampled at every 25th prefix: per width j collect
    (cond(Q_j), orth error of the sketched basis, max column error)."""
    t0 = time.perf_counter()
    out = rhqr_left(desk, SRHTSketch(1200, 4096 - 300, 43))
    rows = []
    for j in JS:
        f = out.prefix(j)
        Q = thin_q(f)
        errs = factorization_errors(desk[:, :j], Q, f.R)
        rows.append((j, cond_number(Q), orthogonality_error(f.psi.apply(Q)),
                     errs.max_col_rel_err))
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def desk_cond(desk):
    t0 = time.perf_counter()
    conds = {j: float(np.linalg.cond(desk[:, :j])) for j in JS}
    return conds, time.perf_counter() - t0


def test_criterion_01_identity_embedding_reproduces_householder():
    """With a pass-through sampling operator every randomized variant must
    agree with deterministic Householder QR to 1e-13 in R and U."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_r = worst_u = 0.0
    for _ in range(20):
        W = rng.standard_normal((64, 8))
        ref = householder_qr(W)
        outs = (
            rhqr_left(W, IdentitySketch(56)),
            rhqr_right(W, IdentitySketch(56)),
            rhqr_block(W, IdentitySketch(56), block_size=3).stacked(),
            trim_rhqr_left(W, IdentitySketch(64)),
            trim_rhqr_right(W, IdentitySketch(64)),
        )
        for out in outs:
            worst_r = max(worst_r, rel(out.R, ref.R))
            worst_u = max(worst_u, rel(out.U, ref.aux["U"]))
    dt = time.perf_counter() - t0
    ok = worst_r <= 1e-13 and worst_u <= 1e-13 and dt < 5
    report(1, ok, f"dR {worst_r:.2e} dU {worst_u:.2e} (<= 1e-13), {dt:.1f}s (< 5s)")


def test_criterion_02_sketched_factors_match_householder_of_sketch():
    """R, S, T of the randomized sweep equal the R, U, T of deterministic
    Householder QR applied to the explicitly sketched matrix, to 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(10):
        W = rng.standard_normal((200, 20))
        for omega in (GaussianSketch(80, 180, 300 + i), SRHTSketch(80, 180, 400 + i)):
            out = rhqr_left(W, omega)
            ref = householder_qr(out.psi.apply(W))
            worst = max(worst, rel(out.R, ref.R), rel(out.S, ref.aux["U"]),
                        rel(out.T, ref.aux["T"]))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 10
    report(2, ok, f"max factor deviation {worst:.2e} (<= 1e-12), {dt:.1f}s (< 10s)")


def test_criterion_03_desk_sketched_orthogonality_and_cond(desk_rhqr_metrics):
    """Desk run, double: the sketched basis stays orthonormal to
    100*m^1.5*u and cond(Q) stays below 2 at every sampled width."""
    t0 = time.perf_counter()
    rows, built = desk_rhqr_metrics
    bound = 100.0 * 300**1.5 * U_DOUBLE
    worst_orth = max(r[2] for r in rows)
    worst_cond = max(r[1] for r in rows)
    dt = time.perf_counter() - t0 + built
    ok = worst_orth <= bound and worst_cond < 2.0 and dt < 180
    report(3, ok, f"orth {worst_orth:.2e} (<= {bound:.2e}), "
                  f"cond {worst_cond:.3f} (< 2), {dt:.1f}s (< 180s)")


def test_criterion_04_desk_column_errors_double_and_single(desk, desk_rhqr_metrics):
    """Column-wise reconstruction error of the same desk run obeys
    100*m^1.5*u in double; a 150-column rerun at l=600 obeys it in single."""
    rows, built = desk_rhqr_metrics
    t0 = time.perf_counter()
    bound_d = 100.0 * 300**1.5 * U_DOUBLE
    worst_d = max(r[3] for r in rows)

    pol = policy_from_tag("single")
    W150 = desk[:, :150]
    out = rhqr_left(W150, SRHTSketch(600, 4096 - 150, 43), policy=pol)
    Q = thin_q(out)
    Wl = round_to(W150, pol.low)
    worst_s = factorization_errors(Wl, Q, out.R).max_col_rel_err
    bound_s = 100.0 * 150**1.5 * U_SINGLE
    dt = time.perf_counter() - t0 + built
    ok = worst_d <= bound_d and worst_s <= bound_s and dt < 180
    report(4, ok, f"double col err {worst_d:.2e} (<= {bound_d:.2e}), "
                  f"single col err {worst_s:.2e} (<= {bound_s:.2e}), "
                  f"{dt:.1f}s (< 180s)")


def test_criterion_05_reconstructed_q_beats_randomized_cholesky(desk, desk_cond):
    """Per sampled width (fresh run each, both methods, double):
    cond(Q) of the reconstructed variant stays below 5, and from the first
    width where the input is within two decades of numerically singular it
    is no worse than randomized Cholesky QR's."""
    conds, built = desk_cond
    t0 = time.perf_counter()
    recs, chols = {}, {}
    for j in JS:
        Wj = desk[:, :j]
        out = rec_rhqr(Wj, SRHTSketch(1200, 4096 - j, 45))
        recs[j] = cond_number(thin_q(out))
        rc = rand_cholesky_qr(Wj, SRHTSketch(1200, 4096, 45))
        chols[j] = cond_number(rc.Q)
    onset = next(j for j in JS if conds[j] > 1.0 / (100.0 * U_DOUBLE))
    worst = max(recs.values())
    bad = [j for j in JS if j >= onset and recs[j] > chols[j]]
    dt = time.perf_counter() - t0 + built
    ok = worst < 5.0 and not bad and dt < 120
    report(5, ok, f"max cond(Q_rec) {worst:.3f} (< 5), onset j={onset}, "
                  f"rec<=chol violations past onset {bad or 'none'} "
                  f"(rec {recs[JS[-1]]:.3f} vs chol {chols[JS[-1]]:.3f} at 300), "
                  f"{dt:.1f}s (< 120s)")


def test_criterion_06_one_synchronization_variant(desk):
    """The single-reduction sweep: T stays within 1e-6 of the identity on a
    well-conditioned input, the corrected sketched basis is orthonormal to
    1e-8, and on the desk matrix cond(Q) stays under 20 (all double)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    W = rng.standard_normal((2000, 60))
    out = blas2_rgs(W, SRHTSketch(240, 2000, 8))
    t_dev = np.linalg.norm(out.aux["T"] - np.eye(60))
    corr_dev = cond_number(blas2_corrected_sketch(out)) - 1.0

    hard = blas2_rgs(desk, SRHTSketch(1200, 4096, 44))
    hard_cond = cond_number(hard.Q)
    dt = time.perf_counter() - t0
    ok = (t_dev <= 1e-6 and corr_dev <= 1e-8 and hard_cond < 20.0 and dt < 120)
    report(6, ok, f"||T-I|| {t_dev:.2e} (<= 1e-6), corrected cond-1 "
                  f"{corr_dev:.2e} (<= 1e-8), desk cond(Q) {hard_cond:.2f} "
                  f"(< 20), {dt:.1f}s (< 120s)")


def test_criterion_07_short_sketch_trim_run(desk, desk_cond):
    """Trim sweep with l=200 < m=300: double reconstruction error below
    1e-8, and in single its cond(Q) is no worse than RGS at l=320 from the
    first sampled width past numerical singularity."""
    conds, _ = desk_cond
    t0 = time.perf_counter()
    F = trim_rhqr_left(desk, SRHTSketch(200, 4096, 42))
    err = factorization_errors(desk, trim_thin_q(F), F.R).max_col_rel_err

    pol = policy_from_tag("single")
    Wl = round_to(desk, pol.low)
    Fs = trim_rhqr_left(desk, SRHTSketch(200, 4096, 42), policy=pol)
    G = rgs(desk, SRHTSketch(320, 4096, 43), policy=pol)
    onset = next(j for j in JS if conds[j] > 1.0 / U_SINGLE)
    track = []
    for j in JS:
        if j < onset:
            continue
        tc = cond_number(trim_thin_q(Fs.prefix(j)))
        gc = cond_number(G.Q[:, :j])
        track.append((j, tc, gc))
    bad = [(j, round(tc, 1), round(gc, 1)) for j, tc, gc in track if tc > gc]
    dt = time.perf_counter() - t0
    ok = err <= 1e-8 and not bad and dt < 180
    report(7, ok, f"double col err {err:.2e} (<= 1e-8), single onset j={onset}, "
                  f"trim<=rgs violations {bad or 'none'} of "
                  f"{[(j, round(tc, 1), round(gc, 1)) for j, tc, gc in track]}, "
                  f"{dt:.1f}s (< 180s)")


def dense_trim_reflector(v, Om, j):
    n = Om.shape[1]
    x = np.zeros(n)
    x[j - 1:] = v
    vs = Om @ x
    Omj = Om.copy()
    Omj[:, : j - 1] = 0.0
    return np.eye(n) - (2.0 / (vs @ vs)) * np.outer(x, vs) @ Omj


def test_criterion_08_invariants_over_seeded_instances():
    """50 seeded instances: the sketched reflectors satisfy
    S^t S = T^{-1} + T^{-t} to 1e-11, and the trim compact form equals the
    dense product of its reflectors (both orders) to 1e-11."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst_w = worst_c = 0.0
    for i in range(50):
        n = int(rng.integers(16, 61))
        m = int(rng.integers(2, min(8, n // 2) + 1))
        W = rng.standard_normal((n, m))

        F = rhqr_left(W, GaussianSketch(4 * m, n - m, 1000 + i))
        gram = F.S.T @ F.S
        Tinv = np.linalg.inv(F.T)
        worst_w = max(worst_w, np.linalg.norm(gram - (Tinv + Tinv.T))
                      / np.linalg.norm(gram))

        G = trim_rhqr_left(W, GaussianSketch(4 * m, n, 2000 + i))
        Om = dense_operator_matrix(normalize_leading_columns(G.omega, m))
        K = G.S.T @ Om
        for r in range(m):
            K[r, :r] = 0.0
        fwd = np.eye(n)
        rev = np.eye(n)
        for j in range(1, m + 1):
            H = dense_trim_reflector(G.U[j - 1:, j - 1], Om, j)
            fwd = fwd @ H
            rev = H @ rev
        worst_c = max(
            worst_c,
            np.linalg.norm(fwd - (np.eye(n) - G.U @ (G.T @ K))),
            np.linalg.norm(rev - (np.eye(n) - G.U @ (G.T_tilde.T @ K))),
        )
    dt = time.perf_counter() - t0
    ok = worst_w <= 1e-11 and worst_c <= 1e-11 and dt < 30
    report(8, ok, f"S^tS vs T dev {worst_w:.2e}, compact-vs-dense dev "
                  f"{worst_c:.2e} (<= 1e-11), {dt:.1f}s (< 30s)")


def test_criterion_09_gmres_quasi_optimal_vs_modified_gram_schmidt():
    """Seeded nonsymmetric sparse 1000x1000 solve: at every iteration the
    randomized solver's true residual is within the embedding's
    quasi-optimality factor of the modified Gram-Schmidt solver's, and the
    basis recurrence holds to 1e-11."""
    t0 = time.perf_counter()
    n, m = 1000, 50
    A = (scipy.sparse.random(n, n, density=0.005,
                             random_state=np.random.RandomState(909))
         + 2.0 * scipy.sparse.identity(n)).tocsr()
    rng = np.random.default_rng(909)
    b = rng.standard_normal(n)
    x0 = np.zeros(n)

    omega = GaussianSketch(4 * (m + 1), n - m - 1, 910)
    bundle = rhqr_arnoldi(A, b, x0, m, omega)
    k = bundle.H.shape[1]
    r_rh = []
    for j in range(1, k + 1):
        y, _, _ = hessenberg_lstsq(bundle.H[: j + 1, :j], bundle.beta)
        pad = np.zeros(n)
        pad[:j] = y
        x = x0 + apply_reflectors_compact(
            bundle.U[:, :j], bundle.S[:, :j], bundle.T[:j, :j], pad, bundle.psi)
        r_rh.append(np.linalg.norm(b - A @ x))

    Qm, Hm, beta_m = mgs_arnoldi(A, b, x0, m)
    r_gs = []
    for j in range(1, Hm.shape[1] + 1):
        e1 = np.zeros(j + 1)
        e1[0] = beta_m
        y, *_ = np.linalg.lstsq(Hm[: j + 1, :j], e1, rcond=None)
        r_gs.append(np.linalg.norm(b - A @ (x0 + Qm[:, :j] @ y)))

    Qk1 = arnoldi_q(bundle, k + 1)
    basis = np.linalg.qr(Qk1)[0]
    eps_hat = check_embedding(bundle.psi, basis)
    factor = (1.0 + eps_hat) / (1.0 - eps_hat)
    ratios = [a / g for a, g in zip(r_rh, r_gs)]
    worst_ratio = max(ratios)

    a_fro = float(np.sqrt(A.multiply(A).sum()))
    relation = np.linalg.norm(A @ Qk1[:, :k] - Qk1 @ bundle.H) / (
        a_fro * np.linalg.norm(Qk1[:, :k]))
    dt = time.perf_counter() - t0
    ok = (worst_ratio <= factor * (1.0 + 1e-8) and relation <= 1e-11
          and dt < 120)
    report(9, ok, f"worst resid ratio {worst_ratio:.6f} (<= {factor:.3f}), "
                  f"eps_hat {eps_hat:.3f}, relation err {relation:.2e} "
                  f"(<= 1e-11), {dt:.1f}s (< 120s)")


def srht_reference(op, X):
    """The operator's own pipeline replayed in extended precision."""
    work = np.zeros((op.n_pad, X.shape[1]), dtype=np.longdouble)
    work[: op.n] = X.astype(np.longdouble) * np.longdouble(op.scale)
    work[: op.n] *= op.signs[: op.n, None].astype(np.longdouble)
    work = hadamard_reference(work) * np.longdouble(op.n_pad) ** np.longdouble(-0.5)
    return work[op.indices]


def test_criterion_10_srht_forward_error():
    """Transform forward error against an extended-precision replay stays
    below 10*(log2(n)+5)*u*||x|| for n = 2^10 and 2^14, 100 vectors each."""
    t0 = time.perf_counter()
    worst = 0.0
    for n, ell, seed in ((1024, 256, 5), (16384, 1024, 6)):
        op = SRHTSketch(ell, n, seed)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 100))
        Y = op.apply(X)
        R = srht_reference(op, X).astype(np.float64)
        bound = 10.0 * (np.log2(n) + 5.0) * U_DOUBLE
        errs = np.linalg.norm(Y - R, axis=0) / np.linalg.norm(X, axis=0)
        worst = max(worst, float(np.max(errs) / bound))
    dt = time.perf_counter() - t0
    ok = worst <= 1.0 and dt < 30
    report(10, ok, f"worst error / bound {worst:.3f} (<= 1), {dt:.1f}s (< 30s)")


def test_criterion_11_half_storage_desk_run(desk):
    """Mixed precision (half storage, double small ops) on the desk matrix:
    the run completes, the sketched basis is orthonormal to 100*m^1.5*u_half,
    and cond(Q) stays under 3."""
    t0 = time.perf_counter()
    pol = policy_from_tag("mixed")
    out = rhqr_left(desk, SRHTSketch(1200, 4096 - 300, 43), policy=pol)
    Q = thin_q(out)
    orth = orthogonality_error(out.psi.apply(Q))
    cq = cond_number(Q)
    bound = 100.0 * 300**1.5 * UNIT_ROUNDOFF[pol.low]
    dt = time.perf_counter() - t0
    ok = orth <= bound and cq < 3.0 and dt < 180
    report(11, ok, f"orth {orth:.2e} (<= {bound:.2e}), cond(Q) {cq:.3f} (< 3), "
                   f"{dt:.1f}s (< 180s)")
