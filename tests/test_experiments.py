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
from sketchqr.linalg import BreakdownError
from sketchqr.precision import policy_from_tag
from sketchqr.sketching import GaussianSketch, SRHTSketch


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
    W = rng.standard_normal((64, 8))
    W[5, 5] = np.nan
    cfg = ExperimentConfig(algo=algo, every=2, seed=1, ell=16)
    rows = run_factor_experiment(W, cfg)
    assert [r.status for r in rows] == ["ok", "ok", "nonfinite@6", "nonfinite@6"]
    assert all(np.isfinite(r.cond_q) for r in rows[:2])
    assert all(np.isnan(r.cond_q) and np.isnan(r.orth_err) for r in rows[2:])
    # an infinity counts the same; the widths before it are measured as a
    # breakdown there would leave them, by a run on the columns before it
    W[0, 2] = -np.inf
    rows = run_factor_experiment(W, cfg)
    assert rows[0] == run_factor_experiment(W[:, :2], cfg)[0]
    assert [r.status for r in rows] == ["ok"] + ["nonfinite@3"] * 3
    # a breakdown before the first non-finite column names the rows
    W[:, 1] = 0.0
    rows = run_factor_experiment(W, cfg)
    assert [r.status for r in rows] == ["breakdown@2"] * 4


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
    # an s above ell is refused even where no run builds its sketch
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
    write_csv(str(p), rows, config=cfg, extra="n=64")
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
    write_csv(str(a), rows, config=det)
    write_csv(str(b), rows, config=det)
    assert a.read_bytes() == b.read_bytes()

    stamped = ExperimentConfig(algo="mgs", every=3)
    c = tmp_path / "c.csv"
    write_csv(str(c), rows, config=stamped)
    assert any(ln.startswith("# written") for ln in c.read_text().splitlines())
    strip = lambda path: [ln for ln in path.read_text().splitlines()
                          if not ln.startswith("#")]
    assert strip(a) == strip(c)


def test_gmres_csv_uses_solver_fields(tmp_path, rng):
    rows = run_gmres_experiment(
        np.eye(16), rng.standard_normal(16), 3,
        ExperimentConfig(algo="rhqr", sketch="gauss", seed=4))
    p = tmp_path / "g.csv"
    write_csv(str(p), rows)
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
# recorded again, the same at 1 and 2 threads.
RUNNER_DIGESTS = {
    ("rhqr-left", "double"): "cb33ebd757c0beb11c76451c37819e57",
    ("rhqr-left", "single"): "847012711046a84f136301b2737f10ce",
    ("rhqr-left", "mixed"): "9732e1965965bb8a11c7e2287494a053",
    ("rhqr-left", "half"): "d3a8d177be2ac1697d10be403f1375bf",
    ("rhqr-right", "double"): "b7390097c6c383281e9a9162083c83e2",
    ("rhqr-right", "single"): "faca065aaa97424b2c16fb37cb1e966e",
    ("rhqr-right", "mixed"): "b7fa7e892c81d56fbdda902d6e3e6db0",
    ("rhqr-right", "half"): "1637784a098ad5ed9434656acc03a46e",
    ("rhqr-block", "double"): "cb33ebd757c0beb11c76451c37819e57",
    ("rhqr-block", "single"): "847012711046a84f136301b2737f10ce",
    ("rhqr-block", "mixed"): "9732e1965965bb8a11c7e2287494a053",
    ("rhqr-block", "half"): "d3a8d177be2ac1697d10be403f1375bf",
    ("rec-rhqr", "double"): "b000f6ccd2c3bea9f8708fa6c4bb39a3",
    ("rec-rhqr", "single"): "7de702da6d7dc8deab45e519a8fb585b",
    ("rec-rhqr", "mixed"): "9c2f91c60aeeb9b9e741681c88e61e76",
    ("rec-rhqr", "half"): "2aeb1c5cb525d2ab16c4454a58c57b4b",
    ("trim-left", "double"): "45e9e6e53ebca2d0bacee752da98a301",
    ("trim-left", "single"): "e21c725e611a189bcf0e2c255d29aab4",
    ("trim-left", "mixed"): "73a0b517cfd87fe878db982bf4d5f726",
    ("trim-left", "half"): "024588d85aca3602c0828793b94b5211",
    ("trim-right", "double"): "94fa3885b3b5abf3f340596590c2503e",
    ("trim-right", "single"): "bf579c4ae38e05f270a6adfd26508b36",
    ("trim-right", "mixed"): "bb24e82e61c9ca3e6e83b1127a5dded6",
    ("trim-right", "half"): "bb05195b238fcb2251c3ef63e3b85bb7",
    ("rgs", "double"): "7ad8d26967715708489139cc8373eabc",
    ("rgs", "single"): "e865a341292bc4f4766a018e428522c8",
    ("rgs", "mixed"): "51618c51307a67aae475448799d95c54",
    ("rgs", "half"): "130db28e39ed816170201f6c424c4dda",
    ("blas2-rgs", "double"): "b4a0909f415711d638ffb6e0b23376b3",
    ("blas2-rgs", "single"): "09424001324d6b9f9f833af9819f5574",
    ("blas2-rgs", "mixed"): "8c36e96a530b9149a831f824cb062822",
    ("blas2-rgs", "half"): "2bc5b2157265905b992df030dd9ba2a4",
    ("cgs", "double"): "b9d9e6b648d862d2382f31edaf819c57",
    ("cgs", "single"): "e53e042205fdaebdd6dfd4c6de28fbd8",
    ("cgs", "mixed"): "deb39b6c26d28c2f6e27a6fe45f56cb5",
    ("cgs", "half"): "add6753eb288ef5659e66b17ad0cf25d",
    ("mgs", "double"): "7d71b2bc579ecae06f59bb31f659f3d0",
    ("mgs", "single"): "932c5d4cb82ebce85659669486f52920",
    ("mgs", "mixed"): "cee76c7a24242fd1fb99e1092198bdd4",
    ("mgs", "half"): "bf370155dc120fdbf23323a4a493fdd9",
    ("hqr", "double"): "0ba5bc2b533d2254fe1b85aba188afd0",
    ("hqr", "single"): "4ebac71e5c44b2868f5e04c529684196",
    ("hqr", "mixed"): "9b6fb659cdaa8c26741cd4f36cfc9256",
    ("hqr", "half"): "cde36beb089e0c0cb177dc55db9efbec",
    ("rcholqr", "double"): "1dd558e70a846c0cb930b9e4725ffb4b",
    ("rcholqr", "single"): "55389bb47da35828eff64830473cf17f",
    ("rcholqr", "mixed"): "772a34561dd44d5e2dcca361fd9f6518",
    ("rcholqr", "half"): "c9b4fad4d2bdecdd44f3ef6c05a3d6ec",
    ("rhqr-left", "unit"): "a54d01e22e39477f857a8dd48195ed88",
    ("rhqr-right", "unit"): "574fe1727988e4496d673b6b57a8e001",
    ("rhqr-block", "unit"): "a54d01e22e39477f857a8dd48195ed88",
    ("rec-rhqr", "unit"): "da0c505d8efbe4a65c7d8b11c27d6841",
    ("trim-left", "unit"): "2079d95bf07a25021da532a5b0ad25d9",
    ("trim-right", "unit"): "2369bb5c3c1fc6aec5da904f9bd08af7",
    ("rgs", "unit"): "7ad8d26967715708489139cc8373eabc",
    ("blas2-rgs", "unit"): "b4a0909f415711d638ffb6e0b23376b3",
    ("cgs", "unit"): "b9d9e6b648d862d2382f31edaf819c57",
    ("mgs", "unit"): "7d71b2bc579ecae06f59bb31f659f3d0",
    ("hqr", "unit"): "c2afe8e518f3c937225d9555ae7d8346",
    ("rcholqr", "unit"): "1dd558e70a846c0cb930b9e4725ffb4b",
    ("rhqr-block", "block5"): "9231fb569771477736841ed96bd0f244",
    ("rhqr-block", "block5-single"): "391a1fd3bcfb25d9cc7142df60be8b79",
    ("rhqr-block", "block5-mixed"): "5b4ec9c0f9e18f112b92e65bcac67b98",
    ("rhqr-block", "block5-half"): "13c5c78e2c05d7dccd03343de3d8b4d7",
    ("rhqr-left", "zero-column"): "5577da340d639032c28e22d3f10f3369",
    ("rhqr-right", "zero-column"): "de19dc48ab06495f4f889ede8fa182de",
    ("rhqr-block", "zero-column"): "5577da340d639032c28e22d3f10f3369",
    ("rec-rhqr", "zero-column"): "57512f56a5ef75e542c11e18026e0197",
    ("trim-left", "zero-column"): "c5b85229e2c55b58b9aaaa3af9caa080",
    ("trim-right", "zero-column"): "8afdd8d61ff81b2e3f5b44e905f4147f",
    ("rgs", "zero-column"): "599fec7002b4011c630b8b69212b7ffe",
    ("blas2-rgs", "zero-column"): "2aed83f68778e96978538b3330b8756d",
    ("cgs", "zero-column"): "e51b50516719ec602b5faa9346489adf",
    ("mgs", "zero-column"): "aa91159e1d7231f369dddfa461e32f00",
    ("hqr", "zero-column"): "82dda0f9e3dbc0dad78294fc6f0dce56",
    ("rcholqr", "zero-column"): "56221e1cce7ad098e2f29f9a19aa5b7a",
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
