import argparse
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse

from sketchqr.cli import build_parser, main
from sketchqr.experiments import (
    GMRES_ALGOS,
    ExperimentConfig,
    GmresRow,
    MetricRow,
    gen_cmatrix,
    run_gmres_experiment,
)
from sketchqr.linalg import SCALINGS
from sketchqr.mmio import load_matrix_market, write_matrix_market
from sketchqr.precision import PRECISION_TAGS

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def test_gen_writes_loadable_matrix(tmp_path, capsys):
    out = tmp_path / "c.mtx"
    rc = main(["gen", "--n", "64", "--m", "8", "--out", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    M = load_matrix_market(str(out))
    assert np.array_equal(M, gen_cmatrix(64, 8))


def csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def test_factor_generated_input_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["factor", "--algo", "rhqr-left", "--gen-n", "256", "--gen-m", "16",
            "--l", "64", "--every", "8", "--seed", "3", "--deterministic"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header, rows = csv_rows(a)
    assert [r["j"] for r in rows] == ["8", "16"]
    assert all(float(r["orth_err"]) < 1e-12 for r in rows)


def test_factor_matrix_file_input(tmp_path, rng):
    W = rng.standard_normal((96, 8))
    mtx = tmp_path / "w.mtx"
    write_matrix_market(str(mtx), W)
    out = tmp_path / "m.csv"
    rc = main(["factor", "--algo", "mgs", "--matrix", str(mtx),
               "--every", "4", "--out", str(out)])
    assert rc == 0
    header, rows = csv_rows(out)
    assert [r["j"] for r in rows] == ["4", "8"]
    assert all(r["status"] == "ok" for r in rows)


def test_factor_on_no_columns_writes_a_header_only_csv(tmp_path):
    mtx = tmp_path / "w.mtx"
    write_matrix_market(str(mtx), np.zeros((8, 0)))
    out = tmp_path / "m.csv"
    assert main(["factor", "--algo", "rhqr-left", "--matrix", str(mtx), "--out", str(out)]) == 0
    header, rows = csv_rows(out)
    assert header == list(MetricRow._fields)
    assert rows == []


def test_factor_input_sources_are_exclusive(tmp_path):
    mtx = tmp_path / "w.mtx"
    write_matrix_market(str(mtx), np.eye(8))
    with pytest.raises(SystemExit):
        main(["factor", "--algo", "mgs", "--matrix", str(mtx),
              "--gen-n", "8", "--out", str(tmp_path / "x.csv")])
    with pytest.raises(SystemExit):
        main(["factor", "--algo", "mgs", "--out", str(tmp_path / "x.csv")])


def spd_mtx(tmp_path, rng, n=64):
    A = scipy.sparse.random(n, n, density=0.1, random_state=np.random.RandomState(5))
    A = A + scipy.sparse.identity(n) * 4.0
    p = tmp_path / "a.mtx"
    write_matrix_market(str(p), A.tocsc())
    return p, A


def test_gmres_end_to_end(tmp_path, rng):
    p, A = spd_mtx(tmp_path, rng)
    out = tmp_path / "g.csv"
    rc = main(["gmres", "--algo", "rhqr", "--matrix", str(p), "--rhs", "ones",
               "--iters", "8", "--sketch", "gauss", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    header, rows = csv_rows(out)
    assert len(rows) == 8
    first, last = float(rows[0]["true_resid"]), float(rows[-1]["true_resid"])
    assert last < 0.2 * first
    assert all(float(r["relation_err"]) < 1e-11 for r in rows)


@pytest.mark.parametrize("algo", GMRES_ALGOS)
def test_gmres_with_no_iterations_writes_the_gmres_header(tmp_path, rng, algo):
    p, _ = spd_mtx(tmp_path, rng)
    out = tmp_path / "g.csv"
    assert main(["gmres", "--algo", algo, "--matrix", str(p), "--iters", "0",
                 "--out", str(out)]) == 0
    header, rows = csv_rows(out)
    assert header == list(GmresRow._fields)
    assert rows == []


def test_gmres_rhs_forms(tmp_path, rng):
    p, A = spd_mtx(tmp_path, rng)
    v = rng.standard_normal(64)
    vp, sp = tmp_path / "b.mtx", tmp_path / "s.mtx"
    write_matrix_market(str(vp), v)
    # a coordinate n x 1 file reads as its dense column
    write_matrix_market(str(sp), scipy.sparse.csc_array(v[:, None]))
    runs = []
    for rhs in ("random:7", f"file:{vp}", f"file:{sp}"):
        out = tmp_path / "r.csv"
        rc = main(["gmres", "--algo", "rgs", "--matrix", str(p), "--rhs", rhs,
                   "--iters", "5", "--sketch", "gauss", "--out", str(out)])
        assert rc == 0
        _, rows = csv_rows(out)
        assert len(rows) == 5
        runs.append(rows)
    assert runs[1] == runs[2]


def test_gmres_input_errors(tmp_path, rng):
    p, A = spd_mtx(tmp_path, rng)
    short = tmp_path / "short.mtx"
    write_matrix_market(str(short), np.ones(10))
    with pytest.raises(SystemExit, match="10 entries"):
        main(["gmres", "--algo", "rhqr", "--matrix", str(p),
              "--rhs", f"file:{short}", "--iters", "4",
              "--out", str(tmp_path / "x.csv")])
    for rhs in ("bogus:3", "random:abc", "random:-1", "random:"):
        with pytest.raises(SystemExit, match=f"^cannot parse --rhs '{rhs}'$"):
            main(["gmres", "--algo", "rhqr", "--matrix", str(p),
                  "--rhs", rhs, "--iters", "4",
                  "--out", str(tmp_path / "x.csv")])
    rect = tmp_path / "rect.mtx"
    write_matrix_market(str(rect), np.ones((6, 4)))
    with pytest.raises(SystemExit, match="square"):
        main(["gmres", "--algo", "rhqr", "--matrix", str(rect),
              "--rhs", "ones", "--iters", "2",
              "--out", str(tmp_path / "x.csv")])


def test_factor_scaling_choices_are_the_library_scalings():
    argv = ["factor", "--algo", "hqr", "--gen-n", "8", "--gen-m", "4", "--out", "x.csv"]
    for scaling in SCALINGS:
        assert build_parser().parse_args(argv + ["--scaling", scaling]).scaling == scaling
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv + ["--scaling", "bogus"])


def test_gmres_algo_choices_are_the_library_solvers():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    algo = next(a for a in sub.choices["gmres"]._actions if a.dest == "algo")
    assert algo.choices == GMRES_ALGOS
    with pytest.raises(ValueError, match=re.escape(f"'mgs', expected one of {GMRES_ALGOS}")):
        run_gmres_experiment(np.eye(16), np.ones(16), 2, ExperimentConfig(algo="mgs"))


@pytest.mark.parametrize("command", ["factor", "gmres"])
def test_precision_choices_are_the_library_tags(command):
    argv = {"factor": ["factor", "--algo", "hqr", "--gen-n", "8", "--gen-m", "4"],
            "gmres": ["gmres", "--algo", "rgs", "--matrix", "a.mtx", "--iters", "2"]}[command]
    argv += ["--out", "x.csv"]
    for tag in PRECISION_TAGS:
        assert build_parser().parse_args(argv + ["--precision", tag]).precision == tag
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv + ["--precision", "quad"])


@pytest.mark.parametrize("bad,match", [(["--s", "0"], "s=0"),
                                       (["--every", "0"], "every=0"),
                                       (["--block-size", "0"], "block_size=0")])
def test_factor_bad_option_values_end_in_one_line(tmp_path, bad, match):
    with pytest.raises(SystemExit, match=match) as exc:
        main(["factor", "--algo", "rhqr-left", "--gen-n", "64", "--gen-m", "8",
              "--sketch", "sparse", "--out", str(tmp_path / "x.csv")] + bad)
    assert "\n" not in str(exc.value)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("ell,shown", [(["--l", "10"], "ell=10"), ([], "ell=32")])
@pytest.mark.parametrize("command", ["factor", "gmres"])
def test_sparse_s_above_ell_ends_in_one_line(tmp_path, rng, command, ell, shown):
    # without --l, ell is the 4 * 8 default: 8 columns, or 7 iterations + 1
    if command == "factor":
        argv = ["factor", "--algo", "rhqr-left", "--gen-n", "64", "--gen-m", "8"]
    else:
        p, _ = spd_mtx(tmp_path, rng)
        argv = ["gmres", "--algo", "rgs", "--matrix", str(p), "--iters", "7"]
    with pytest.raises(SystemExit, match=f"s=50 .*{shown}") as exc:
        main(argv + ["--sketch", "sparse", "--s", "50", "--out", str(tmp_path / "x.csv")]
             + ell)
    assert "\n" not in str(exc.value)
    assert not (tmp_path / "x.csv").exists()


def run_cli(argv):
    """`python -m sketchqr argv` in a fresh interpreter, with this checkout's
    src/ first on PYTHONPATH (pytest's own pythonpath setting does not reach
    a child process): (exit code, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-m", "sketchqr"] + argv, capture_output=True,
                       text=True, env=env)
    return r.returncode, r.stderr


def test_sparse_s_above_ell_prints_no_traceback(tmp_path):
    code, err = run_cli(["factor", "--algo", "rhqr-left", "--gen-n", "64", "--gen-m", "8",
                         "--sketch", "sparse", "--s", "50", "--l", "10",
                         "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "s=50" in err and "ell=10" in err


def test_unreadable_matrix_files_end_in_one_line(tmp_path):
    missing = tmp_path / "missing.mtx"
    garbled = tmp_path / "garbled.mtx"
    garbled.write_text("%%MatrixMarket matrix array real general\n2 2\n1\nx\n")
    for path in (missing, garbled):
        for argv in (["factor", "--algo", "mgs", "--matrix", str(path)],
                     ["gmres", "--algo", "rgs", "--matrix", str(path), "--iters", "2"]):
            with pytest.raises(SystemExit, match=f"cannot read {path}") as exc:
                main(argv + ["--out", str(tmp_path / "x.csv")])
            assert "\n" not in str(exc.value)
    p, _ = spd_mtx(tmp_path, None)
    with pytest.raises(SystemExit, match="cannot read"):
        main(["gmres", "--algo", "rgs", "--matrix", str(p), "--rhs", f"file:{missing}",
              "--iters", "2", "--out", str(tmp_path / "x.csv")])


def test_bad_option_value_prints_no_traceback(tmp_path):
    code, err = run_cli(["factor", "--algo", "mgs", "--matrix", str(tmp_path / "missing.mtx"),
                         "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "No such file" in err


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "t.mtx"
    code, _ = run_cli(["gen", "--n", "8", "--m", "4", "--out", str(out)])
    assert code == 0
    assert load_matrix_market(str(out)).shape == (8, 4)


def test_sketch_longer_than_the_input_ends_in_one_line(tmp_path):
    # the default ell = 4m = 256 exceeds the SRHT's padded length 64
    mtx = tmp_path / "sq.mtx"
    write_matrix_market(str(mtx), gen_cmatrix(64, 64))
    out = tmp_path / "x.csv"
    code, err = run_cli(["factor", "--algo", "rgs", "--matrix", str(mtx), "--out", str(out)])
    assert code == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "ell=256 exceeds padded length 64" in err
    assert not out.exists()


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("algo", ["rhqr", "rgs"])
def test_gmres_on_a_nonfinite_operator_ends_in_one_line(tmp_path, algo, sparse):
    # a dense A @ x0 also warns of the inf * 0 it meets; the error says it all
    A = scipy.sparse.identity(64, format="lil") * 4.0
    A[10, 3] = np.inf
    mtx = tmp_path / "inf.mtx"
    write_matrix_market(str(mtx), A.tocsc() if sparse else A.toarray())
    out = tmp_path / "x.csv"
    code, err = run_cli(["gmres", "--algo", algo, "--matrix", str(mtx), "--iters", "5",
                         "--sketch", "gauss", "--out", str(out)])
    assert code == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "non-finite input in column 1" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["gen", "--n", "1", "--m", "5"],
                                  ["factor", "--algo", "mgs", "--gen-n", "1", "--gen-m", "1"]])
def test_a_too_small_generated_matrix_ends_in_one_line(tmp_path, argv):
    out = tmp_path / "x.out"
    code, err = run_cli(argv + ["--out", str(out)])
    assert code == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "need n >= 2 and m >= 2" in err
    assert not out.exists()


def test_a_wide_input_ends_in_one_line(tmp_path):
    # without the check, cgs writes an "ok" row of noise here
    out = tmp_path / "x.csv"
    code, err = run_cli(["factor", "--algo", "cgs", "--gen-n", "10", "--gen-m", "12",
                         "--out", str(out)])
    assert code == 1
    assert err == "cannot run: W must have n >= m, got 10 x 12\n"
    assert not out.exists()


def test_a_negative_iteration_count_ends_in_one_line(tmp_path, rng):
    p, _ = spd_mtx(tmp_path, rng)
    out = tmp_path / "x.csv"
    code, err = run_cli(["gmres", "--algo", "rgs", "--matrix", str(p), "--iters", "-1",
                         "--out", str(out)])
    assert code == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "iters=-1 must be >= 0" in err
    assert not out.exists()


@pytest.mark.parametrize("algo", ["rhqr-left", "rhqr-right", "rhqr-block", "rec-rhqr"])
def test_a_square_input_to_a_trailing_sketch_names_the_rows(tmp_path, algo):
    # the [I; Omega] embedding sketches the n - m rows below its identity block
    out = tmp_path / "x.csv"
    msg = (f"cannot run: {algo} needs n > m: its sketch takes the n - m = 0 rows "
           f"below the identity block")
    with pytest.raises(SystemExit, match=f"^{re.escape(msg)}$"):
        main(["factor", "--algo", algo, "--gen-n", "20", "--gen-m", "20", "--out", str(out)])
    assert not out.exists()


def test_too_many_rhqr_iterations_name_the_bound(tmp_path):
    # rhqr-Arnoldi's sketch takes the n - iters - 1 rows below its m + 1 columns
    mtx = tmp_path / "a.mtx"
    write_matrix_market(str(mtx), np.eye(6) * 2.0)
    out = tmp_path / "x.csv"
    argv = ["gmres", "--algo", "rhqr", "--matrix", str(mtx), "--out", str(out)]
    with pytest.raises(SystemExit, match=re.escape(
            "cannot run: the rhqr solver needs iters <= n - 2 = 4, got 5")):
        main(argv + ["--iters", "5"])
    assert not out.exists()
    assert main(argv + ["--iters", "4", "--sketch", "gauss"]) == 0


def test_a_run_that_returns_shows_the_warnings_it_raised(tmp_path):
    # A = 0 closes the space at once and leaves H = 0, whose least-squares
    # solve warns of the coordinate it zeroes; the run still writes its row
    mtx = tmp_path / "zero.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n12 12 0\n")
    out = tmp_path / "g.csv"
    code, err = run_cli(["gmres", "--algo", "rhqr", "--sketch", "gauss", "--seed", "1",
                         "--iters", "3", "--matrix", str(mtx), "--out", str(out)])
    assert code == 0
    assert "RuntimeWarning: Hessenberg system is rank deficient" in err
    _, rows = csv_rows(out)
    assert [r["status"] for r in rows] == ["closed@1"]
