import hashlib

import numpy as np
import pytest

from sketchqr.experiments import (
    ALGOS,
    FACTOR_ALGOS,
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
    call, _, _ = ALGOS[algo]
    cfg = ExperimentConfig(algo=algo)
    for W in (np.ones(20), np.ones((20, 3, 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match="W must be a matrix"):
            call(W, SRHTSketch(8, 20, 0), cfg, policy_from_tag("double"))


# the factorizations whose call takes config.scaling
SCALED = ("rhqr-left", "rhqr-right", "rhqr-block", "rec-rhqr", "trim-left", "trim-right", "hqr")


@pytest.mark.parametrize("algo", SCALED)
def test_factorizations_refuse_an_unknown_scaling(algo):
    call, rows, _ = ALGOS[algo]
    n, m = 64, 8
    omega = SRHTSketch(32, n - m if rows == TRAILING else n, 0)
    with pytest.raises(ValueError, match="unknown scaling 'householder'"):
        call(gen_cmatrix(n, m), omega, ExperimentConfig(algo=algo, scaling="householder"),
             policy_from_tag("double"))


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
    call, rows, _ = ALGOS[algo]
    n, m = 64, 8
    W = gen_cmatrix(n, m)
    W[n // 2, column - 1] = bad
    W[0, m - 1] = bad
    omega = SRHTSketch(32, n - m if rows == TRAILING else n, 0)
    with pytest.raises(BreakdownError) as info:
        call(W, omega, ExperimentConfig(algo=algo), policy_from_tag(tag))
    assert (info.value.reason, info.value.column) == ("nonfinite_input", column)


@pytest.mark.parametrize("algo", [a for a, (_, rows, _) in ALGOS.items() if rows])
def test_sketched_entry_points_word_sketch_faults_alike(algo):
    call, rows, _ = ALGOS[algo]
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


def test_rerun_algorithms_sweep(rng):
    W = rng.standard_normal((128, 12))
    for algo in ("rec-rhqr", "rcholqr"):
        rows = run_factor_experiment(W, ExperimentConfig(algo=algo, every=4, seed=5))
        assert [r.j for r in rows] == [4, 8, 12]
        for r in rows:
            assert r.status == "ok"
            assert r.orth_err <= 1e-10
            assert r.max_col_rel_err <= 1e-12


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
# input is zero, so every algorithm stops with breakdown@18 on both the
# prefix and the rerun sweep.  The rec-rhqr and rcholqr entries other than
# half were recorded again when their sketch QR moved to LAPACK's xGEQRT,
# again the same at 1, 2 and 4 threads.  "block5" runs rhqr-block with
# 5-column panels (the multi-panel path; block 32 is one panel here), in
# double or in the precision after the dash.
RUNNER_DIGESTS = {
    ("rhqr-left", "double"): "f2988d0e6db2d30516b5edbaac7677e5",
    ("rhqr-left", "single"): "847ba7208c44f3ae5cdcdb54c09e755f",
    ("rhqr-left", "mixed"): "65e9cdf263b11f61d8d3725d7a4d1c73",
    ("rhqr-left", "half"): "7a3fd5800bf52dc0c4b0f4172af2de88",
    ("rhqr-right", "double"): "68cf792d9edd13ac28a902135fc7bc95",
    ("rhqr-right", "single"): "95e35616e3d52942dc49a2fe4c0f6932",
    ("rhqr-right", "mixed"): "9872fd690d3a26354b83b7c2ad67adf2",
    ("rhqr-right", "half"): "b5255065b36515fbe34594b8a7dad5c3",
    ("rhqr-block", "double"): "f2988d0e6db2d30516b5edbaac7677e5",
    ("rhqr-block", "single"): "847ba7208c44f3ae5cdcdb54c09e755f",
    ("rhqr-block", "mixed"): "65e9cdf263b11f61d8d3725d7a4d1c73",
    ("rhqr-block", "half"): "7a3fd5800bf52dc0c4b0f4172af2de88",
    ("rec-rhqr", "double"): "ed9dc7af4cd29d64a7e9868454da5929",
    ("rec-rhqr", "single"): "30d9d9df4ebe9f47189702147a9d4eae",
    ("rec-rhqr", "mixed"): "287cb3fed609bf1421f98f02e269c40c",
    ("rec-rhqr", "half"): "464b61e04aa665684416341caaa03a8c",
    ("trim-left", "double"): "f8ecb60a95632630eeb541e12c44a8f5",
    ("trim-left", "single"): "ab63e82c66f41f895e1c95c5fc73685a",
    ("trim-left", "mixed"): "7adb8b89024f06fa68caaa3021b0c9bb",
    ("trim-left", "half"): "d8a4e9f72d00218610fbd20d76578b98",
    ("trim-right", "double"): "5214bedc05a79ed26e606bae7d303e28",
    ("trim-right", "single"): "1d7ba0f2c72e0a4d16aa7dcc455f062b",
    ("trim-right", "mixed"): "0d2b6042e79b843bc992c5fb8ed0f72c",
    ("trim-right", "half"): "543cf9daf478abbd9f4663f5e106ae3f",
    ("rgs", "double"): "8119b0e9eaf40698ef95b9a679f35883",
    ("rgs", "single"): "e84a75b4f482c8b04e0a47184b0a5fa6",
    ("rgs", "mixed"): "6c8e997f0a9e917e7a66240fc3a6ef9d",
    ("rgs", "half"): "c4779096611e1d79b7d6ebe3f10653d7",
    ("blas2-rgs", "double"): "1098db065adc292b5e90e734a7763d6c",
    ("blas2-rgs", "single"): "b56dbae780fb525e28b62bbd492ec869",
    ("blas2-rgs", "mixed"): "b7e929be7094e59e179c2e7171bf4345",
    ("blas2-rgs", "half"): "dfe88569a7f743246835905835706962",
    ("cgs", "double"): "7b413e28f79b5d1a8ea83418b711cf72",
    ("cgs", "single"): "a32d326cd7d3b607a3ac3bb6b3cc96a7",
    ("cgs", "mixed"): "ccb41425ea4d4db7c4e5ac1f9d930434",
    ("cgs", "half"): "add6753eb288ef5659e66b17ad0cf25d",
    ("mgs", "double"): "1f611d6825f9ff54f7f7b29eae9d10fb",
    ("mgs", "single"): "915713c27f04a452473e6ac941df6dbd",
    ("mgs", "mixed"): "6dcd02dc9df64c3ff84235157e8eb3fb",
    ("mgs", "half"): "bf370155dc120fdbf23323a4a493fdd9",
    ("hqr", "double"): "4f4e046952ce4f6378ba302904e97235",
    ("hqr", "single"): "4fa24a2e32b03e7f6dd68afcddecc649",
    ("hqr", "mixed"): "9b6fb659cdaa8c26741cd4f36cfc9256",
    ("hqr", "half"): "cde36beb089e0c0cb177dc55db9efbec",
    ("rcholqr", "double"): "48fb9e1f057059a4ff1dfa978b65d040",
    ("rcholqr", "single"): "0d295eaee4e19e53ac7bc56cb9d368b5",
    ("rcholqr", "mixed"): "6db46b8a862e2c63564b6b70ee5bdb78",
    ("rcholqr", "half"): "173226e549f021ef67bf4d6c0989073d",
    ("rhqr-left", "unit"): "2b6ae1a020967fd9e69dbbd8d5b038bb",
    ("rhqr-right", "unit"): "f6b3bef55f1357b59668f17810bf3a1b",
    ("rhqr-block", "unit"): "2b6ae1a020967fd9e69dbbd8d5b038bb",
    ("rec-rhqr", "unit"): "174b841bc6b3d2beac6b99e684153020",
    ("trim-left", "unit"): "07b47c3aa13d65a5eb2b3da59bbe561e",
    ("trim-right", "unit"): "f5b04265ce3e8a8b31c639d8fdde6f78",
    ("rgs", "unit"): "8119b0e9eaf40698ef95b9a679f35883",
    ("blas2-rgs", "unit"): "1098db065adc292b5e90e734a7763d6c",
    ("cgs", "unit"): "7b413e28f79b5d1a8ea83418b711cf72",
    ("mgs", "unit"): "1f611d6825f9ff54f7f7b29eae9d10fb",
    ("hqr", "unit"): "2ee1621d558f3420942308241477c028",
    ("rcholqr", "unit"): "48fb9e1f057059a4ff1dfa978b65d040",
    ("rhqr-block", "block5"): "dd77d7833cca08e02b58c20138dcdf82",
    ("rhqr-block", "block5-single"): "1752b7ff2a048cd6ac50c55bac59fb0c",
    ("rhqr-block", "block5-mixed"): "15bb55b909572c61bd79f4a09bd4f4ff",
    ("rhqr-block", "block5-half"): "c0574995c221fa112157fc6711f64a83",
    ("rhqr-left", "zero-column"): "18404abb8ba99afbf70896c7ded5bc67",
    ("rhqr-right", "zero-column"): "7578ea73e0207062a8cbd705cec39d71",
    ("rhqr-block", "zero-column"): "18404abb8ba99afbf70896c7ded5bc67",
    ("rec-rhqr", "zero-column"): "ca15829d86bbe39e71df0358574087f7",
    ("trim-left", "zero-column"): "f4dd0c3b3190da7d93d7f57298103b33",
    ("trim-right", "zero-column"): "39f844f5271b3cdf112872b2a64a547b",
    ("rgs", "zero-column"): "8d2387136154b222914506ddfc7080c8",
    ("blas2-rgs", "zero-column"): "dff61c0f13a49cd313b45cdbb50bd337",
    ("cgs", "zero-column"): "821813b2dec89e7d539683bf87b3c5e3",
    ("mgs", "zero-column"): "c64cbb6498dc46c12706dc3071d06914",
    ("hqr", "zero-column"): "c1d387deb4d0b38f2bc7597c656d4f8f",
    ("rcholqr", "zero-column"): "6a099ed3edcd7af26e198657d731b17e",
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
