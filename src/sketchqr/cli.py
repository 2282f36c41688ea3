"""Command-line front end: generate test matrices, run factorization
stability sweeps, and run GMRES convergence experiments, all emitting CSV.
"""

import argparse
import sys
import warnings

import numpy as np
import scipy.sparse

from .experiments import (
    FACTOR_ALGOS,
    GMRES_ALGOS,
    ExperimentConfig,
    gen_cmatrix,
    run_factor_experiment,
    run_gmres_experiment,
    write_csv,
)
from .linalg import SCALINGS, BreakdownError
from .mmio import load_matrix_market, write_matrix_market
from .precision import PRECISION_TAGS, PrecisionRangeError
from .sketching import SKETCH_KINDS


def _sketch_args(p, what="columns"):
    p.add_argument("--sketch", choices=SKETCH_KINDS, default="srht",
                   help="sampling operator family")
    p.add_argument("--l", type=int, default=0, dest="ell", metavar="L",
                   help=f"sampling size (default 4x {what})")
    p.add_argument("--s", type=int, default=8,
                   help="nonzeros per column of the sparse sign sketch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--precision", choices=PRECISION_TAGS, default="double")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--deterministic", action="store_true",
                   help="suppress the timestamp comment for byte-stable output")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="sketchqr",
        description="Randomized QR stability experiments: matrix generation, "
                    "factorization sweeps, and sketched GMRES runs.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write the cfunc test matrix as Matrix Market")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--out", required=True)

    f = sub.add_parser("factor", help="factorization stability sweep to CSV")
    f.add_argument("--algo", choices=FACTOR_ALGOS, required=True)
    f.add_argument("--matrix", help="Matrix Market input (dense or sparse)")
    f.add_argument("--gen-n", type=int, help="generate the cfunc matrix instead")
    f.add_argument("--gen-m", type=int)
    f.add_argument("--every", type=int, default=25,
                   help="sample metrics every K columns")
    f.add_argument("--scaling", choices=SCALINGS, default="sqrt2")
    f.add_argument("--block-size", type=int, default=32)
    _sketch_args(f)

    s = sub.add_parser("gmres", help="GMRES convergence experiment to CSV")
    s.add_argument("--algo", choices=GMRES_ALGOS, required=True)
    s.add_argument("--matrix", required=True, help="square operator, Matrix Market")
    s.add_argument("--rhs", default="ones",
                   help="ones | random:SEED | file:PATH (Matrix Market vector)")
    s.add_argument("--iters", type=int, required=True)
    _sketch_args(s, what="iters")
    return ap


def _load(path):
    """load_matrix_market, with a bad or missing file ending the run in one
    line instead of a traceback."""
    try:
        return load_matrix_market(path)
    except OSError as e:
        raise SystemExit(f"cannot read {path}: {e.strerror or e}") from None
    except ValueError as e:
        raise SystemExit(f"cannot read {path}: {e}") from None


def _one_line(what, call, *args, **kwargs):
    """call(*args, **kwargs), with a ValueError, BreakdownError or
    PrecisionRangeError ending the run in one line that starts with what.
    A run that ends so drops the warnings it raised; one that returns shows
    them after it."""
    with warnings.catch_warnings(record=True) as seen:
        try:
            out = call(*args, **kwargs)
        except (ValueError, BreakdownError, PrecisionRangeError) as e:
            raise SystemExit(f"{what}: {e}") from None
    for w in seen:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return out


def _config(args, **fields):
    """The run's ExperimentConfig, an invalid option ending the run in one line."""
    return _one_line("invalid option", ExperimentConfig, algo=args.algo, sketch=args.sketch,
                     ell=args.ell, s=args.s, seed=args.seed, precision=args.precision,
                     deterministic=args.deterministic, **fields)


def _factor_input(args):
    if args.matrix and (args.gen_n or args.gen_m):
        raise SystemExit("give either --matrix or --gen-n/--gen-m, not both")
    if args.matrix:
        M = _load(args.matrix)
        return M.toarray() if scipy.sparse.issparse(M) else M
    if not (args.gen_n and args.gen_m):
        raise SystemExit("need --matrix or both --gen-n and --gen-m")
    return _one_line("invalid option", gen_cmatrix, args.gen_n, args.gen_m)


def _rhs_vector(form, n):
    if form == "ones":
        return np.ones(n)
    if form.startswith("random:"):
        return np.random.default_rng(int(form.split(":", 1)[1])).standard_normal(n)
    if form.startswith("file:"):
        v = _load(form.split(":", 1)[1])
        if scipy.sparse.issparse(v):
            v = v.toarray()
        v = np.asarray(v, dtype=np.float64).ravel(order="F")
        if v.shape[0] != n:
            raise SystemExit(f"right-hand side has {v.shape[0]} entries, operator needs {n}")
        return v
    raise SystemExit(f"cannot parse --rhs {form!r}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "gen":
        write_matrix_market(args.out, _one_line("invalid option", gen_cmatrix, args.n, args.m),
                            comment=f"cfunc test matrix n={args.n} m={args.m}")
        print(f"wrote {args.n}x{args.m} matrix to {args.out}")
        return 0
    if args.command == "factor":
        config = _config(args, every=args.every, scaling=args.scaling,
                         block_size=args.block_size)
        W = _factor_input(args)
        rows = _one_line("cannot run", run_factor_experiment, W, config)
        write_csv(args.out, rows, config, extra=f"input {W.shape[0]}x{W.shape[1]}")
        print(f"wrote {len(rows)} metric rows to {args.out}")
        return 0
    config = _config(args)
    if args.iters < 0:
        raise SystemExit(f"invalid option: iters={args.iters} must be >= 0")
    A = _load(args.matrix)
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise SystemExit(f"gmres needs a square operator, got {A.shape[0]}x{A.shape[1]}")
    b = _rhs_vector(args.rhs, n)
    rows = _one_line("cannot run", run_gmres_experiment, A, b, args.iters, config)
    write_csv(args.out, rows, config, extra=f"operator {n}x{n}, rhs {args.rhs}")
    print(f"wrote {len(rows)} iteration rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
