import numpy as np
import pytest

from sketchqr.experiments import (
    ExperimentConfig,
    GmresRow,
    MetricRow,
    gen_cmatrix,
    run_factor_experiment,
    run_gmres_experiment,
    sample_widths,
    write_csv,
)


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
