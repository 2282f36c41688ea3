import hashlib
import types
import warnings

import numpy as np
import pytest
import scipy.sparse

from sketchqr import experiments
from sketchqr.experiments import (
    ALGOS,
    FACTOR_ALGOS,
    GMRES_ALGOS,
    TRAILING,
    ExperimentConfig,
    GmresRow,
    MetricRow,
    gen_cmatrix,
    run_factor_experiment,
    run_gmres_experiment,
    sample_widths,
    write_csv,
)
from sketchqr.krylov import arnoldi_q, rgs_arnoldi, rhqr_arnoldi
from sketchqr.linalg import BreakdownError, cond_number, factorization_errors, orthogonality_error
from sketchqr.precision import policy_from_tag
from sketchqr.sketching import SKETCH_KINDS, GaussianSketch, SRHTSketch, make_sketch


@pytest.mark.parametrize("algo", list(ALGOS))
def test_factorizations_refuse_non_matrix_input(algo):
    # the same ValueError before any shape is unpacked, for every entry point
    call, _ = ALGOS[algo]
    cfg = ExperimentConfig(algo=algo)
    for W in (np.ones(20), np.ones((20, 3, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match="W must be a matrix"):
            call(W, SRHTSketch(8, 20, 0), cfg, policy_from_tag("double"))


def test_runner_refuses_non_matrix_input():
    # the entry points' own check, before the runner unpacks a shape
    for algo in ALGOS:
        for W, k in ((np.ones(20), 1), (np.ones((20, 3, 2)), 3)):
            with pytest.raises(ValueError, match=f"^W must be a matrix, got {k} dimensions$"):
                run_factor_experiment(W, ExperimentConfig(algo=algo))


# the factorizations whose call takes config.scaling
SCALED = ("rhqr-left", "rhqr-right", "rhqr-block", "rec-rhqr", "trim-left", "trim-right", "hqr")


@pytest.mark.parametrize("algo", SCALED)
def test_factorizations_refuse_an_unknown_scaling(algo):
    # ExperimentConfig refuses the name itself, so a bare namespace carries
    # it to the factorization
    call, rows = ALGOS[algo]
    n, m = 64, 8
    omega = SRHTSketch(32, n - m if rows == TRAILING else n, 0)
    config = types.SimpleNamespace(scaling="householder", block_size=32)
    with pytest.raises(ValueError, match="unknown scaling 'householder'"):
        call(gen_cmatrix(n, m), omega, config, policy_from_tag("double"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("algo", list(ALGOS))
def test_a_tiny_column_breaks_down_or_stays_finite(algo):
    # at a column of norm ~1e-160 the sqrt2 reflector scale (1/(rho sigma
    # gamma), or trim's 2/||Omega v||^2) overflows: a run must stop there
    # with a breakdown, not carry inf and NaN into every column of Q
    W = np.random.default_rng(1).standard_normal((64, 4))
    W[:, 2] *= 1e-160
    rows = run_factor_experiment(W, ExperimentConfig(algo=algo, every=1, ell=16))
    for r in rows:
        if r.status == "ok":
            assert np.isfinite(r[1:-1]).all(), r
        else:
            assert r.status == "breakdown@3", r


def _half_scale_underflow_input():
    # rho = 5000 at column 1: in half the sqrt2 scale beta = 1/(rho sigma
    # gamma) ~ 2e-8 (trim's 2/||Omega v||^2 alike) rounds to 0, which would
    # make u = 0 and the reflector the identity
    W = np.random.default_rng(0).standard_normal((64, 4))
    W[0, 0] = 5000.0
    return W


@pytest.mark.parametrize("algo", ["rhqr-left", "rhqr-right", "rhqr-block", "trim-left",
                                  "trim-right", "hqr"])
def test_a_half_sqrt2_scale_that_rounds_to_zero_breaks_down_at_its_column(algo, monkeypatch):
    # one run, and every row filed as a breakdown at column 1, where the
    # identity reflector gave ok rows with fro_rel_err 2.0
    call, sketch_rows = ALGOS[algo]
    calls = []
    monkeypatch.setitem(ALGOS, algo, (lambda *a: calls.append(1) or call(*a), sketch_rows))
    rows = run_factor_experiment(_half_scale_underflow_input(),
                                 ExperimentConfig(algo=algo, precision="half", every=1, ell=16))
    assert [r.status for r in rows] == ["breakdown@1"] * 4
    assert len(calls) == 1


@pytest.mark.parametrize("algo", list(ALGOS))
def test_a_range_overflow_is_placed_at_the_narrowest_failing_width(algo, monkeypatch):
    # column 1's norm, ~1.6e5, overflows half: every column step's norm
    # rule (linalg.column_norm) names that column, so one run places it
    # with no reruns below it
    call, sketch_rows = ALGOS[algo]
    calls = []
    monkeypatch.setitem(ALGOS, algo, (lambda *a: calls.append(1) or call(*a), sketch_rows))
    W = gen_cmatrix(512, 40) * 3e3
    rows = run_factor_experiment(W, ExperimentConfig(algo=algo, precision="half", every=10))
    assert [r.status for r in rows] == ["breakdown@1"] * 4
    assert len(calls) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("algo", list(ALGOS))
def test_an_overflowing_norm_breaks_down_at_its_own_column(algo):
    # np.linalg.norm of column 3 (entries ~2^520) overflows float64: every
    # column step stops there, before the inf reaches a later column; only
    # the entry points whose norms come from LAPACK, which scales, factor
    W = np.random.default_rng(1).standard_normal((64, 4))
    W[:, 2] *= 2.0 ** 520
    call, rows = ALGOS[algo]
    omega = SRHTSketch(16, 60 if rows == TRAILING else 64, 0)
    try:
        call(W, omega, ExperimentConfig(algo=algo), policy_from_tag("double"))
    except BreakdownError as exc:
        assert (exc.reason, exc.column) == ("scale_nonfinite", 3)
    else:
        assert algo in ("rec-rhqr", "rcholqr")


@pytest.mark.parametrize("column", [1, 4])
@pytest.mark.parametrize("tag", ["double", "single", "mixed"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("algo", list(ALGOS))
def test_factorizations_refuse_nonfinite_input(algo, bad, tag, column):
    # one typed error, naming the first bad column, from every entry point
    call, rows = ALGOS[algo]
    n, m = 64, 8
    W = gen_cmatrix(n, m)
    W[n // 2, column - 1] = bad
    W[0, m - 1] = bad
    omega = SRHTSketch(32, n - m if rows == TRAILING else n, 0)
    with pytest.raises(BreakdownError) as info:
        call(W, omega, ExperimentConfig(algo=algo), policy_from_tag(tag))
    assert (info.value.reason, info.value.column) == ("nonfinite_input", column)


@pytest.mark.parametrize("algo", [a for a, (_, rows) in ALGOS.items() if rows])
def test_sketched_entry_points_word_sketch_faults_alike(algo):
    call, rows = ALGOS[algo]
    n, m = 64, 8
    W = gen_cmatrix(n, m)
    need = n - m if rows == TRAILING else n
    cfg, policy = ExperimentConfig(algo=algo), policy_from_tag("double")
    with pytest.raises(ValueError) as info:
        call(W, GaussianSketch(32, need + 1, 0), cfg, policy)
    assert str(info.value) == f"sketch takes {need + 1} coordinates, expected {need}"
    short = GaussianSketch(m - 1, need, 0)
    if algo.startswith("trim"):
        # the trimmed reflectors are built for ell < m
        assert call(W, short, cfg, policy).R.shape == (m, m)
        return
    with pytest.raises(ValueError) as info:
        call(W, short, cfg, policy)
    assert str(info.value) == f"sampling size ell={m - 1} is below {m} columns"


def test_cmatrix_corner_values():
    C = gen_cmatrix(5, 5)
    assert C.shape == (5, 5)
    assert C[0, 0] == 0.0
    # x = mu = 1 in both corners of the formula
    assert C[-1, -1] == np.sin(20.0) / 2.1
    with pytest.raises(ValueError):
        gen_cmatrix(1, 5)


def test_cmatrix_conditioning_grows():
    C = gen_cmatrix(1024, 96)
    c24 = np.linalg.cond(C[:, :24])
    c96 = np.linalg.cond(C[:, :96])
    assert c24 < 1e4
    assert c96 > 1e8


def test_sample_widths():
    assert sample_widths(300, 25) == list(range(25, 301, 25))
    assert sample_widths(10, 3) == [3, 6, 9, 10]
    assert sample_widths(5, 10) == [5]
    assert sample_widths(8, 8) == [8]
    assert sample_widths(0, 5) == []


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(algo="mgs", every=0)
    with pytest.raises(ValueError):
        ExperimentConfig(algo="mgs", ell=-4)
    with pytest.raises(ValueError, match="s=0"):
        ExperimentConfig(algo="rhqr-left", sketch="sparse", s=0)
    with pytest.raises(ValueError, match="block_size=0"):
        ExperimentConfig(algo="rhqr-block", block_size=0)
    with pytest.raises(ValueError):
        run_factor_experiment(np.eye(4), ExperimentConfig(algo="qr-but-wrong"))
    # names are checked whether or not the algorithm reads them: mgs reads
    # neither sketch nor scaling, and ran on any name
    for field, value in (("sketch", "gaussian"), ("scaling", "bogus"), ("precision", "quad")):
        with pytest.raises(ValueError, match=f"unknown {field} '{value}'"):
            ExperimentConfig(algo="mgs", **{field: value})
    with pytest.raises(ValueError, match="unknown sketch 'gaussian'"):
        run_factor_experiment(gen_cmatrix(64, 8), ExperimentConfig(
            algo="mgs", sketch="gaussian", scaling="bogus", every=4))


@pytest.mark.parametrize("field", ["ell", "s", "seed", "every", "block_size"])
@pytest.mark.parametrize("value", [2.5, "4", None])
def test_config_refuses_non_integer_sizes(field, value):
    # these used to be accepted and to fail only when the run used them
    with pytest.raises(ValueError, match=f"^{field}={value!r} must be an integer$"):
        ExperimentConfig(algo="rhqr-block", **{field: value})
    assert type(ExperimentConfig(algo="rhqr-block", **{field: np.int64(5)}).__dict__[field]) is int


def test_unknown_precision_names_every_tag():
    with pytest.raises(ValueError, match="'half', 'single', 'double', 'mixed'"):
        ExperimentConfig(algo="mgs", precision="quad")


def test_hqr_on_orthonormal_input(rng):
    Q0 = np.linalg.qr(rng.standard_normal((200, 12)))[0]
    rows = run_factor_experiment(Q0, ExperimentConfig(algo="hqr", every=4))
    assert [r.j for r in rows] == [4, 8, 12]
    for r in rows:
        assert r.status == "ok"
        assert r.cond_q <= 1 + 1e-10
        assert r.orth_err <= 1e-13
        assert r.fro_rel_err <= 1e-13


def test_breakdown_rows_are_flagged(rng):
    W = rng.standard_normal((64, 6))
    W[:, 3] = 0.0
    rows = run_factor_experiment(W, ExperimentConfig(algo="mgs", every=2))
    assert rows[0].status == "ok" and np.isfinite(rows[0].cond_q)
    for r in rows[1:]:
        assert r.status == "breakdown@4"
        assert np.isnan(r.cond_q) and np.isnan(r.orth_err)


@pytest.mark.parametrize("algo", FACTOR_ALGOS)
def test_nonfinite_columns_stop_every_algorithm(rng, algo):
    W0 = rng.standard_normal((64, 8))
    W = W0.copy()
    W[5, 5] = np.nan
    cfg = ExperimentConfig(algo=algo, every=2, seed=1, ell=16)
    rows = run_factor_experiment(W, cfg)
    assert [r.status for r in rows] == ["ok", "ok", "nonfinite@6", "nonfinite@6"]
    assert all(np.isfinite(r.cond_q) for r in rows[:2])
    assert all(np.isnan(r.cond_q) and np.isnan(r.orth_err) for r in rows[2:])
    # an infinity counts the same; the widths before it are measured as a
    # breakdown there would leave them, by a run on the columns before it
    # under the sketch of a run on the unbroken W
    W[0, 2] = -np.inf
    rows = run_factor_experiment(W, cfg)
    ref = run_factor_experiment(W0, cfg)[0]
    np.testing.assert_allclose(rows[0][1:3], ref[1:3], rtol=1e-10)
    assert [r.status for r in rows] == ["ok"] + ["nonfinite@3"] * 3
    # a breakdown before the first non-finite column names the rows
    W[:, 1] = 0.0
    rows = run_factor_experiment(W, cfg)
    assert [r.status for r in rows] == ["breakdown@2"] * 4


@pytest.mark.parametrize("algo", [a for a, (_, rows) in ALGOS.items() if rows == TRAILING])
def test_rows_before_a_failure_measure_the_full_runs_embedding(algo):
    # one Omega per run: the run on W[:, :c] below a failure at column c + 1
    # takes [I_{m-c}; Omega], so its [I_c; [I_{m-c}; Omega]] is the full
    # run's [I_m; Omega] and cond(Q), cond(Psi Q) are the full run's.  The
    # error metrics sit at the rounding level, where only an absolute bound
    # says anything
    W0 = gen_cmatrix(512, 40)
    cfg = ExperimentConfig(algo=algo, ell=80, seed=3, every=5, block_size=16)
    full = run_factor_experiment(W0, cfg)
    for bad in (0.0, np.nan):
        W = W0.copy()
        W[:, 30] = bad
        rows = run_factor_experiment(W, cfg)
        assert rows[6].status in ("breakdown@31", "nonfinite@31")
        got, ref = np.array([r[1:6] for r in rows[:6]]), np.array([r[1:6] for r in full[:6]])
        np.testing.assert_allclose(got[:, :2], ref[:, :2], rtol=1e-10)
        np.testing.assert_allclose(got[:, 2:], ref[:, 2:], rtol=0, atol=1e-13)


def test_sketch_then_factor_algorithms_sweep(rng):
    W = rng.standard_normal((128, 12))
    for algo in ("rec-rhqr", "rcholqr"):
        rows = run_factor_experiment(W, ExperimentConfig(algo=algo, every=4, seed=5))
        assert [r.j for r in rows] == [4, 8, 12]
        for r in rows:
            assert r.status == "ok"
            assert r.orth_err <= 1e-10
            assert r.max_col_rel_err <= 1e-12


@pytest.mark.parametrize("algo,name", [("rec-rhqr", "rec_rhqr"),
                                       ("rcholqr", "rand_cholesky_qr")])
def test_a_sweep_factors_its_input_once(monkeypatch, algo, name):
    # every width is read off the prefix of one run
    calls = []
    run = getattr(experiments, name)

    def counted(W, *args, **kwargs):
        calls.append(W.shape)
        return run(W, *args, **kwargs)

    monkeypatch.setattr(experiments, name, counted)
    rows = run_factor_experiment(gen_cmatrix(512, 40), ExperimentConfig(algo=algo, every=5))
    assert len(rows) == 8
    assert calls == [(512, 40)]


def test_rec_rhqr_rows_measure_the_sweeps_embedding(rng):
    # rec-rhqr is the Householder QR of Psi W that rhqr-left computes, and
    # its prefixes are read under the same Psi: cond(Q) agrees at every width
    W = rng.standard_normal((512, 24))
    shared = dict(seed=7, every=4)
    rec = run_factor_experiment(W, ExperimentConfig(algo="rec-rhqr", **shared))
    left = run_factor_experiment(W, ExperimentConfig(algo="rhqr-left", **shared))
    assert [r.j for r in rec] == [r.j for r in left] == [4, 8, 12, 16, 20, 24]
    for a, b in zip(rec, left):
        assert a.status == b.status == "ok"
        assert abs(a.cond_q - b.cond_q) <= 1e-10 * b.cond_q


@pytest.mark.parametrize("algo", list(ALGOS))
def test_a_run_on_no_columns_has_no_rows(algo):
    for kind in SKETCH_KINDS:
        cfg = ExperimentConfig(algo=algo, sketch=kind)
        assert run_factor_experiment(np.zeros((16, 0)), cfg) == [], kind


@pytest.mark.parametrize("algo", ["rhqr-left", "rec-rhqr", "trim-left", "trim-right"])
@pytest.mark.parametrize("every", [1, 24])
def test_a_sweep_materializes_q_once(monkeypatch, algo, every):
    # every width is read off the leading block of one thin Q
    calls = []
    for name in ("thin_q", "trim_thin_q"):
        def counted(f, _run=getattr(experiments, name)):
            calls.append(f.R.shape[1])
            return _run(f)
        monkeypatch.setattr(experiments, name, counted)
    rows = run_factor_experiment(gen_cmatrix(256, 24), ExperimentConfig(
        algo=algo, every=every, ell=16 if algo.startswith("trim") else 0))
    assert len(rows) == 24 // every
    assert calls == [24]


@pytest.mark.parametrize("algo", list(ALGOS))
def test_rows_match_per_width_metrics(monkeypatch, algo):
    # the leading-block reading agrees with the metric functions run on
    # each width's own Q, R and Psi Q; trim's l = 16 < m makes its R_S wide
    runs = []
    measure = experiments._measure

    def kept(Wl, out, widths):
        runs.append(out)
        return measure(Wl, out, widths)

    monkeypatch.setattr(experiments, "_measure", kept)
    W = gen_cmatrix(256, 32)
    rows = run_factor_experiment(W, ExperimentConfig(
        algo=algo, seed=3, every=7, ell=16 if algo.startswith("trim") else 0))
    assert [r.j for r in rows] == [7, 14, 21, 28, 32]
    # rounding-level: the error metrics measure the rounding of the
    # products being regrouped, about 1e-16 to 1e-15 here
    atol = 1e-14
    for r in rows:
        assert r.status == "ok"
        Q, R, SQ = experiments._q_r_sq(runs[0], r.j)
        errs = factorization_errors(W[:, :r.j], Q, R)
        assert abs(r.cond_q - cond_number(Q)) <= 1e-12 * cond_number(Q)
        assert abs(r.cond_sq - cond_number(SQ)) <= 1e-12 * cond_number(SQ)
        assert abs(r.fro_rel_err - errs.fro_rel_err) <= atol
        assert abs(r.max_col_rel_err - errs.max_col_rel_err) <= atol
        assert abs(r.orth_err - orthogonality_error(SQ)) <= atol


@pytest.mark.parametrize("algo", list(ALGOS))
def test_factorizations_refuse_a_wide_input(algo):
    # one ValueError from every entry point and from the runner, before a
    # sketch is built or a column is touched
    call, rows = ALGOS[algo]
    n, m = 10, 12
    cfg = ExperimentConfig(algo=algo)
    omega = SRHTSketch(8, 16, 0)
    with pytest.raises(ValueError, match=f"^W must have n >= m, got {n} x {m}$"):
        call(gen_cmatrix(n, m), omega, cfg, policy_from_tag("double"))
    with pytest.raises(ValueError, match=f"^W must have n >= m, got {n} x {m}$"):
        run_factor_experiment(gen_cmatrix(n, m), cfg)


def test_mixed_precision_sweep_completes():
    W = gen_cmatrix(256, 16)
    rows = run_factor_experiment(
        W, ExperimentConfig(algo="rhqr-left", ell=64, seed=2, precision="mixed",
                            every=8))
    for r in rows:
        assert r.status == "ok"
        assert np.isfinite(r.cond_q) and np.isfinite(r.orth_err)
        assert r.orth_err <= 0.1
        # the embedding at l=64 over 16 columns distorts by roughly
        # sqrt(16/64), which caps cond(Q) near (1+eps)/(1-eps) = 3
        assert r.cond_q <= 3.0
        assert r.cond_sq <= 1.01


def test_sketched_orthogonality_outlives_rgs_on_hard_columns():
    # the oscillatory matrix at full scale: its trailing columns are
    # numerically dependent, which RGS tolerates poorly while the
    # Householder-based sweep keeps its sketched basis orthonormal
    W = gen_cmatrix(4096, 300)
    shared = dict(ell=1200, seed=43, every=50, precision="double")
    rh = run_factor_experiment(W, ExperimentConfig(algo="rhqr-left", **shared))
    gs = run_factor_experiment(W, ExperimentConfig(algo="rgs", **shared))
    for r in rh:
        assert r.status == "ok"
        assert r.orth_err <= 1e-10
    assert gs[-1].orth_err > 1e-3
    assert max(r.orth_err for r in rh) < 1e-6 * gs[-1].orth_err


def test_gmres_identity_closes_immediately(rng):
    n = 32
    b = rng.standard_normal(n)
    rows = run_gmres_experiment(
        np.eye(n), b, 5, ExperimentConfig(algo="rhqr", sketch="gauss", seed=1))
    assert len(rows) == 1
    assert rows[0].status == "closed@1"
    assert rows[0].true_resid <= 1e-12 * np.linalg.norm(b)


def cluster_operator(rng, n=120, clusters=12):
    vals = np.repeat(np.arange(1.0, clusters + 1.0), n // clusters)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q @ np.diag(vals) @ Q.T


@pytest.mark.parametrize("algo", ["rhqr", "rgs"])
def test_gmres_clustered_spectrum_converges(rng, algo):
    # 12 distinct eigenvalues: the minimal polynomial has degree 12, so the
    # solver must finish by iteration 12 up to roundoff
    A = cluster_operator(rng)
    b = rng.standard_normal(120)
    rows = run_gmres_experiment(
        A, b, 15, ExperimentConfig(algo=algo, sketch="gauss", seed=9))
    bnorm = np.linalg.norm(b)
    done = [r for r in rows if r.j >= 12]
    assert done and all(r.true_resid <= 1e-8 * bnorm for r in done)
    resids = [r.sketched_resid for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(resids, resids[1:]))
    for r in rows:
        assert r.relation_err <= 1e-11
        assert r.cond_basis < 10.0


def gmres_reference(A, b, m, cfg):
    """(relation_err, cond_basis) of every iteration by the per-width
    formulas, on the basis and Hessenberg of the runner's Arnoldi run."""
    n, ell, policy = b.shape[0], cfg.sampling_size(m + 1), policy_from_tag(cfg.precision)
    if cfg.algo == "rhqr":
        bun = rhqr_arnoldi(A, b, None, m, make_sketch(cfg.sketch, ell, n - m - 1, cfg.seed),
                           scaling=cfg.scaling, policy=policy)
        Q, H = arnoldi_q(bun), bun.H
    else:
        Q, H, _, _ = rgs_arnoldi(A, b, None, m, make_sketch(cfg.sketch, ell, n, cfg.seed),
                                 policy=policy)
    out = []
    for j in range(1, H.shape[1] + 1):
        p = min(j + 1, Q.shape[1])
        rel = np.linalg.norm(A @ Q[:, :j] - Q[:, :p] @ H[:p, :j])
        out.append((rel / (np.linalg.norm(A) * np.linalg.norm(Q[:, :j])),
                    cond_number(Q[:, :p])))
    return out


@pytest.mark.parametrize("algo", GMRES_ALGOS)
def test_gmres_rows_match_the_per_width_formulas(rng, algo):
    # relation_err and cond_basis are read off one relation residual and one
    # R of the basis; in single the residual is set by the float32
    # recurrence, far above the rounding of either way of evaluating it
    n, m = 300, 25
    A = rng.standard_normal((n, n)) / np.sqrt(n) + 2 * np.eye(n)
    b = rng.standard_normal(n)
    cfg = ExperimentConfig(algo=algo, sketch="gauss", seed=5, precision="single")
    rows = run_gmres_experiment(A, b, m, cfg)
    ref = np.array(gmres_reference(A, b, m, cfg))
    assert [r.j for r in rows] == list(range(1, m + 1))
    np.testing.assert_allclose([r.relation_err for r in rows], ref[:, 0], rtol=1e-8)
    np.testing.assert_allclose([r.cond_basis for r in rows], ref[:, 1], rtol=1e-10)
    # a space that closes early has k columns, not k + 1, to measure
    rows = run_gmres_experiment(np.eye(n), b, m, cfg)
    assert [(r.j, r.status) for r in rows] == [(1, "closed@1")]
    ref = gmres_reference(np.eye(n), b, m, cfg)
    np.testing.assert_allclose([rows[0].relation_err, rows[0].cond_basis], ref[0], rtol=1e-10)
    assert run_gmres_experiment(A, b, 0, cfg) == []


@pytest.mark.parametrize("algo", GMRES_ALGOS)
def test_gmres_zero_operator_reports_its_residuals(algo):
    # the space closes at once; its one row keeps the residual of r0, and a
    # zero ||A||_F leaves the (zero) relation residual unscaled
    cfg = ExperimentConfig(algo=algo, sketch="gauss", seed=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = run_gmres_experiment(np.zeros((12, 12)), np.ones(12), 3, cfg)
    assert [str(w.message) for w in caught if "rank deficient" not in str(w.message)] == []
    assert [(r.j, r.status, r.relation_err) for r in rows] == [(1, "closed@1", 0.0)]
    assert rows[0].sketched_resid > 0.0
    assert rows[0].true_resid == pytest.approx(np.sqrt(12.0), rel=1e-15)


@pytest.mark.parametrize("algo", GMRES_ALGOS)
def test_gmres_conds_take_no_n_row_basis(monkeypatch, algo):
    # cond(Q_{j+1}) comes from a leading block of one R of the basis, never
    # from an SVD of the n-row basis itself
    n, m = 200, 12
    shapes = []

    def record(M):
        shapes.append(np.shape(M))
        return cond_number(M)

    monkeypatch.setattr(experiments, "cond_number", record)
    A = np.diag(np.linspace(1.0, 3.0, n))
    rows = run_gmres_experiment(A, np.ones(n), m, ExperimentConfig(algo=algo, sketch="gauss"))
    assert len(rows) == m
    assert shapes and max(rows_in for rows_in, _ in shapes) <= m + 1


@pytest.mark.parametrize("algo", GMRES_ALGOS)
def test_gmres_checks_its_iteration_count_before_its_sketch(algo):
    cfg = ExperimentConfig(algo=algo, seed=1)
    for m, message in ((-1, "m=-1 must be >= 0"), (2.0, "m=2.0 must be an integer")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_gmres_experiment(np.eye(64), np.ones(64), m, cfg)


def test_gmres_rejects_unknown_solver():
    with pytest.raises(ValueError):
        run_gmres_experiment(np.eye(4), np.ones(4), 2,
                             ExperimentConfig(algo="hqr"))


@pytest.mark.parametrize("algo", ["rhqr", "rgs"])
def test_gmres_rejects_nonfinite_start(algo):
    b = np.ones(16)
    b[3] = np.nan
    cfg = ExperimentConfig(algo=algo, sketch="gauss", seed=1)
    # r0 = b - A x0 is column 1 of the Krylov matrix
    with pytest.raises(BreakdownError) as info:
        run_gmres_experiment(np.eye(16), b, 2, cfg)
    assert (info.value.reason, info.value.column) == ("nonfinite_input", 1)
    x0 = np.zeros(16)
    x0[0] = np.inf
    with pytest.raises(BreakdownError) as info:
        run_gmres_experiment(np.eye(16), np.ones(16), 2, cfg, x0=x0)
    assert (info.value.reason, info.value.column) == ("nonfinite_input", 1)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("algo", ["rhqr", "rgs"])
def test_gmres_checks_its_start_before_applying_a(algo, sparse):
    # a NaN or an inf in b or x0 is named before A x0 is formed, so no
    # RuntimeWarning comes first (inf * 0 in a dense matvec is a NaN)
    A = scipy.sparse.eye_array(16, format="csr") if sparse else np.eye(16)
    cfg = ExperimentConfig(algo=algo, sketch="gauss", seed=1)
    bad = np.zeros(16)
    bad[0] = np.inf
    for b, x0 in ((np.ones(16), bad), (bad, None), (bad, np.ones(16))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BreakdownError) as info:
                run_gmres_experiment(A, b, 2, cfg, x0=x0)
        assert (info.value.reason, info.value.column) == ("nonfinite_input", 1)


def test_runs_check_sparse_s_against_the_sampling_size():
    cfg = ExperimentConfig(algo="rgs", sketch="sparse", s=50)
    with pytest.raises(ValueError, match="s=50 .*ell=32"):
        run_factor_experiment(gen_cmatrix(64, 8), cfg)
    with pytest.raises(ValueError, match="s=50 .*ell=32"):
        run_gmres_experiment(np.eye(64), np.ones(64), 7, cfg)
    # s only matters to the sparse sign sketch
    assert ExperimentConfig(algo="rgs", sketch="srht", s=50).sampling_size(8) == 32
    assert ExperimentConfig(algo="rgs", sketch="sparse", s=50, ell=60).sampling_size(8) == 60


@pytest.mark.parametrize("algo", ["rgs", "rhqr-left", "rec-rhqr"])
def test_runs_check_sparse_s_before_the_nonfinite_scan(algo):
    # an s above ell is refused before the input gate refuses column 1
    W = gen_cmatrix(64, 8)
    W[3, 0] = np.nan
    with pytest.raises(ValueError, match="s=50 must lie in \\[1, ell=32\\]"):
        run_factor_experiment(W, ExperimentConfig(algo=algo, sketch="sparse", s=50, every=4))
    cfg = ExperimentConfig(algo=algo, sketch="gauss", s=50, every=4)
    assert [r.status for r in run_factor_experiment(W, cfg)] == ["nonfinite@1"] * 2


@pytest.mark.parametrize("tag", ["double", "single", "mixed"])
@pytest.mark.parametrize("algo", FACTOR_ALGOS)
def test_runs_leave_their_input_unchanged(algo, tag):
    # the runner reads W in place: a read-only W gives the same rows
    W = gen_cmatrix(64, 8)
    cfg = ExperimentConfig(algo=algo, every=3, ell=16, precision=tag)
    want = run_factor_experiment(W.copy(), cfg)
    W.flags.writeable = False
    before = W.tobytes()
    assert str(run_factor_experiment(W, cfg)) == str(want)
    assert W.tobytes() == before


def test_gmres_rejects_callable_operator():
    # the relation error is scaled by ||A||_F, which a matvec alone would
    # need n calls to compute
    with pytest.raises(TypeError):
        run_gmres_experiment(lambda v: v, np.ones(16), 2, ExperimentConfig(algo="rgs"))


def read_back(path):
    comments, header, data = [], None, []
    with open(path) as fh:
        for ln in fh:
            ln = ln.rstrip("\n")
            if ln.startswith("#"):
                comments.append(ln)
            elif header is None:
                header = ln.split(",")
            else:
                data.append(ln.split(","))
    return comments, header, data


def test_csv_round_trip(tmp_path, rng):
    W = rng.standard_normal((64, 6))
    cfg = ExperimentConfig(algo="mgs", every=2)
    rows = run_factor_experiment(W, cfg)
    p = tmp_path / "out.csv"
    write_csv(str(p), rows, MetricRow, config=cfg, extra="n=64")
    comments, header, data = read_back(str(p))
    assert header == list(MetricRow._fields)
    assert any("mgs" in c for c in comments)
    assert any("n=64" in c for c in comments)
    assert len(data) == len(rows)
    got = float(data[0][header.index("cond_q")])
    assert got == rows[0].cond_q


def test_csv_deterministic_flag(tmp_path, rng):
    W = rng.standard_normal((64, 6))
    det = ExperimentConfig(algo="mgs", every=3, deterministic=True)
    rows = run_factor_experiment(W, det)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(str(a), rows, MetricRow, config=det)
    write_csv(str(b), rows, MetricRow, config=det)
    assert a.read_bytes() == b.read_bytes()

    stamped = ExperimentConfig(algo="mgs", every=3)
    c = tmp_path / "c.csv"
    write_csv(str(c), rows, MetricRow, config=stamped)
    assert any(ln.startswith("# written") for ln in c.read_text().splitlines())
    strip = lambda path: [ln for ln in path.read_text().splitlines()
                          if not ln.startswith("#")]
    assert strip(a) == strip(c)


def test_gmres_csv_uses_solver_fields(tmp_path, rng):
    rows = run_gmres_experiment(
        np.eye(16), rng.standard_normal(16), 3,
        ExperimentConfig(algo="rhqr", sketch="gauss", seed=4))
    p = tmp_path / "g.csv"
    write_csv(str(p), rows, GmresRow)
    _, header, data = read_back(str(p))
    assert header == list(GmresRow._fields)
    assert data[0][header.index("status")] == rows[0].status


# blake2b digests of every MetricRow run_factor_experiment returns, recorded
# before the runner's per-algorithm wiring became one table.  On
# gen_cmatrix(256, 32) they are the same at 1, 2 and 4 BLAS threads (on
# 300 x 40, fro_rel_err differs in its last bits between 1 and 2 threads);
# they still pin the numpy/OpenBLAS build.  Column 17 of the "zero-column"
# input is zero, so every algorithm stops with breakdown@18.  The rec-rhqr and rcholqr entries other than
# half were recorded again when their sketch QR moved to LAPACK's xGEQRT,
# again the same at 1, 2 and 4 threads.  "block5" runs rhqr-block with
# 5-column panels (the multi-panel path; block 32 is one panel here), in
# double or in the precision after the dash.  The rhqr-right and trim-right
# entries were recorded again when those sweeps began to grow T, T~ and L
# by the left sweeps' column steps, in place of an inversion after the
# sweep; U, S and R kept their bits.  The block5 entries were recorded
# again when rhqr-block began to sketch each panel once and to form T's
# off-diagonal blocks by GEMMs after each panel, again the same at 1, 2
# and 4 threads.  The single entries of rhqr-left, rhqr-right, rhqr-block,
# trim-left, trim-right, rgs, blas2-rgs and hqr, and block5-single, were
# recorded again when float32 products began to read their operands as
# stored, with no packed copy made first; again the same at 1, 2 and 4
# threads.  The 56 entries that moved when every basis store became
# column-major (linalg.low_storage), so that products read U and Q with
# leading dimension n, were recorded again, the same at 1, 2 and 4 threads.
# The rec-rhqr entries and the rcholqr entries but half were recorded again
# when both stopped being rerun at every sampled width and were read off
# the prefixes of one run, the same at 1, 2 and 4 threads.  The 58 entries
# that moved when the SRHT's transform became Kronecker-factored GEMMs were
# recorded again, the same at 1 and 2 threads.  The 13 rhqr-left and
# rhqr-block entries but half that moved when the left sweeps began to form
# T's new column and the next column's coefficients in one product over a
# column-major S were recorded again, the same at 1 and 2 threads.  All 76
# entries were recorded again when the runner began to read every width off
# one thin Q: cond from the leading blocks of the Householder R of Q and of
# Psi Q (scipy's LAPACK xGEQRT, which they now pin too), the errors from the
# residual's column norms and one Gram matrix; the same at 1 and 2 threads.
# The 12 rhqr-right and trim-right entries were recorded again when the
# right sweeps began to keep their trailing block's sketch as an image in
# sketch space and to update through the compact-form kernel, and the
# zero-column entries of rhqr-left, rhqr-block and rec-rhqr when the runner
# began to build one Omega per run (the run below a breakdown takes
# [I; Omega] nested in the full run's); the same at 1 and 2 threads.
RUNNER_DIGESTS = {
    ("rhqr-left", "double"): "683953dc0fada4038722d1c42227a2d9",
    ("rhqr-left", "single"): "de62616d00341c600d7993286b26f4d0",
    ("rhqr-left", "mixed"): "54942f03567f7629b602713f0eaa2edc",
    ("rhqr-left", "half"): "b3dfac42592af4abf34af56892e8a092",
    ("rhqr-right", "double"): "e3091ca2c4143c3b86f8ac2a8f684382",
    ("rhqr-right", "single"): "6286c34e7efc247dcf38507bb1c4b2e4",
    ("rhqr-right", "mixed"): "e169bb852617b58dd5a1bc3fa1bffb6e",
    ("rhqr-right", "half"): "708cf338f880357a06ed041eab2fd48a",
    ("rhqr-block", "double"): "683953dc0fada4038722d1c42227a2d9",
    ("rhqr-block", "single"): "de62616d00341c600d7993286b26f4d0",
    ("rhqr-block", "mixed"): "54942f03567f7629b602713f0eaa2edc",
    ("rhqr-block", "half"): "b3dfac42592af4abf34af56892e8a092",
    ("rec-rhqr", "double"): "1fb81c862cf5814dd629867ba942cc6f",
    ("rec-rhqr", "single"): "50205b5fe97868bfe178e4086ff106a4",
    ("rec-rhqr", "mixed"): "c9f9096e4bb6a534ce836c2658385557",
    ("rec-rhqr", "half"): "6d082880e9c2ba1bee7a59989e8b854a",
    ("trim-left", "double"): "ea64c8e25c926495f405c4c01a949b38",
    ("trim-left", "single"): "d77dc79c0c711ad3d7eaff9158b69329",
    ("trim-left", "mixed"): "322c40a5d4b5234d4c9e1891bb049251",
    ("trim-left", "half"): "426cc437a5f6b6369a4cbc3f06febd8d",
    ("trim-right", "double"): "1723d81072f0d8c6f6c1c00af54a9163",
    ("trim-right", "single"): "a1a422b3aa9794d9e1637d3d76ccc5b9",
    ("trim-right", "mixed"): "50bc4769b5eae650099d7efde5ddc9f6",
    ("trim-right", "half"): "705ea773233f7c8259152753f85618e8",
    ("rgs", "double"): "33c534cd9c40f7c010b4a79e1d3437c5",
    ("rgs", "single"): "53c44d6709b6e0b1e69e6edba32e103e",
    ("rgs", "mixed"): "29a43db88bc15d45684f12ea2436ba7e",
    ("rgs", "half"): "f13d8f6d9c943ab6393034a4fe1c12f9",
    ("blas2-rgs", "double"): "64298ee86f89c34256319dafd7997ba4",
    ("blas2-rgs", "single"): "27da4f57cdc37a41d749c00b1cb972fd",
    ("blas2-rgs", "mixed"): "df868696dc37cca43430f354398d9a3a",
    ("blas2-rgs", "half"): "797ef34600bbb6b4d1a88fd5ef67211a",
    ("cgs", "double"): "bb24f963586b8bcaef3abf06f332f70f",
    ("cgs", "single"): "1450698c13f5ab9ff4e3c1b8e4d1c750",
    ("cgs", "mixed"): "4a77fe5fdb02767bb0d11006bcaa0114",
    ("cgs", "half"): "2592e9e4f604a11602d62017b30799cb",
    ("mgs", "double"): "9d29c34406862cd2ee0760a090c63710",
    ("mgs", "single"): "d88c297dbfd851746294542867791183",
    ("mgs", "mixed"): "c3bb4cc329cd9ac96ebaef482643a7be",
    ("mgs", "half"): "c408ae91ccf436b2ccbee87ceec977a9",
    ("hqr", "double"): "516e9e4575381428f764820a3ae49a92",
    ("hqr", "single"): "2ac9a97b2bcc6e8ea18421544bbf1fe6",
    ("hqr", "mixed"): "c5dc5ce84723a26449bd64ad2852c676",
    ("hqr", "half"): "8f62efd36e8201c3da419d6b214f3933",
    ("rcholqr", "double"): "c2b174a6b8e4c22cda7d4fc34c5a2656",
    ("rcholqr", "single"): "2f915d567c29aba85db8c0e9597cb04c",
    ("rcholqr", "mixed"): "5f0b28a5537896360e575a5d924141aa",
    ("rcholqr", "half"): "ea68eebabdfe5793afdb8a61f4d5e32c",
    ("rhqr-left", "unit"): "ccfb84b0e02feee819d882a135d7bd6e",
    ("rhqr-right", "unit"): "92a1fdba8d129cb66a657eedacf00e4f",
    ("rhqr-block", "unit"): "ccfb84b0e02feee819d882a135d7bd6e",
    ("rec-rhqr", "unit"): "de35fa2f0c5359828c4c09b4e436266d",
    ("trim-left", "unit"): "8699c62909500706b9155167849ea8d4",
    ("trim-right", "unit"): "a09b005cba7fef641023abd721a6922a",
    ("rgs", "unit"): "33c534cd9c40f7c010b4a79e1d3437c5",
    ("blas2-rgs", "unit"): "64298ee86f89c34256319dafd7997ba4",
    ("cgs", "unit"): "bb24f963586b8bcaef3abf06f332f70f",
    ("mgs", "unit"): "9d29c34406862cd2ee0760a090c63710",
    ("hqr", "unit"): "cf7080ccc4f764b82bc2f3082d5fa2fe",
    ("rcholqr", "unit"): "c2b174a6b8e4c22cda7d4fc34c5a2656",
    ("rhqr-block", "block5"): "e42471f30e67b4d1b507d43ad288dc9f",
    ("rhqr-block", "block5-single"): "67325be9b9d6028e1b64ab8824e0a98d",
    ("rhqr-block", "block5-mixed"): "43758961ac7018cb3045650e19c56238",
    ("rhqr-block", "block5-half"): "61456e3681524aceb2c4dbc6d1df2d6e",
    ("rhqr-left", "zero-column"): "ffdd0a7be11709f78ebc538bea051414",
    ("rhqr-right", "zero-column"): "5f2506b5c6723e741b47811ecd088493",
    ("rhqr-block", "zero-column"): "ffdd0a7be11709f78ebc538bea051414",
    ("rec-rhqr", "zero-column"): "9ec72d0ebe85d3f15b12a431e651f618",
    ("trim-left", "zero-column"): "8a34b68aab10369f29bf06f2f970daca",
    ("trim-right", "zero-column"): "8d647485c3807eaf74a5a50e5455bfb6",
    ("rgs", "zero-column"): "9184f612b227aba8414369561d614f1c",
    ("blas2-rgs", "zero-column"): "20ecd666a9599af1ab35ee6a64953ca9",
    ("cgs", "zero-column"): "7f01bdd7a8895215d63f45e15f17f4b7",
    ("mgs", "zero-column"): "2c29a3f6900b0dad9653fcd2b1f70167",
    ("hqr", "zero-column"): "2417feea663637fa9e5cee3d03165bc4",
    ("rcholqr", "zero-column"): "3aa90db5b3c02f4880d3e89af35e8417",
}


def _rows_digest(rows):
    h = hashlib.blake2b(digest_size=16)
    for row in rows:
        h.update(",".join(v if isinstance(v, str) else float(v).hex() for v in row).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("case", list(RUNNER_DIGESTS), ids="-".join)
def test_runner_golden_digests(case):
    algo, variant = case
    W = gen_cmatrix(256, 32)
    cfg = dict(algo=algo, seed=3, every=7, ell=16 if algo.startswith("trim") else 0)
    if variant == "unit":
        cfg["scaling"] = "unit"
    elif variant.startswith("block5"):
        cfg["block_size"] = 5
        cfg["precision"] = variant[7:] or "double"
    elif variant == "zero-column":
        W[:, 17] = 0.0
    else:
        cfg["precision"] = variant
    rows = run_factor_experiment(W, ExperimentConfig(**cfg))
    assert _rows_digest(rows) == RUNNER_DIGESTS[case]
