"""Benchmark sweeps: factorize growing column prefixes (or iterate a GMRES
solve) and emit per-step stability metrics as CSV.

All metrics are computed in double on explicitly materialized thin-Q
factors, whatever precision the algorithm itself ran in, and errors are
measured against the storage-rounded input (the matrix the low-precision
run actually saw).  Every factorization is triangular in the columns (its
leading j columns of Q and R[:j, :j] factor W[:, :j]), so each is run once
and sampled at its column prefixes.  ALGOS wires each algorithm name to its
call and its sketch.
"""

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse

from .baselines import blas2_rgs, cgs, householder_qr, mgs, rand_cholesky_qr, rgs
from .krylov import (
    _apply_basis,
    _as_operator,
    _gmres_solve,
    _krylov_input,
    arnoldi_q,
    rgs_arnoldi,
    rhqr_arnoldi,
)
from .linalg import (
    BreakdownError,
    as_array,
    check_matrix,
    check_scaling,
    cond_number,
    factorization_errors,
    orthogonality_error,
)
from .precision import PrecisionRangeError, policy_from_tag, round_to
from .rhqr import RHQRFactors, rec_rhqr, rhqr_block, rhqr_left, rhqr_right, thin_q
from .sketching import SKETCH_KINDS, SparseSignSketch, _integer, make_sketch
from .trim import TrimFactors, trim_rhqr_left, trim_rhqr_right, trim_thin_q

# Sketch rows: TRAILING sketches the n-m rows under the identity block of
# the [I; Omega] embedding, ALL sketches all n rows, None builds no sketch.
TRAILING, ALL = "trailing", "all"

# algorithm name -> (call(W, omega, config, policy), sketch rows).  The
# calls look their functions up when they run, so a rebinding of this
# module's names reaches them.
ALGOS = {
    "rhqr-left": (lambda W, om, c, p: rhqr_left(W, om, scaling=c.scaling, policy=p), TRAILING),
    "rhqr-right": (lambda W, om, c, p: rhqr_right(W, om, scaling=c.scaling, policy=p), TRAILING),
    "rhqr-block": (lambda W, om, c, p: rhqr_block(W, om, block_size=c.block_size,
                                                  scaling=c.scaling, policy=p), TRAILING),
    "rec-rhqr": (lambda W, om, c, p: rec_rhqr(W, om, scaling=c.scaling, policy=p), TRAILING),
    "trim-left": (lambda W, om, c, p: trim_rhqr_left(W, om, scaling=c.scaling, policy=p), ALL),
    "trim-right": (lambda W, om, c, p: trim_rhqr_right(W, om, scaling=c.scaling, policy=p), ALL),
    "rgs": (lambda W, om, c, p: rgs(W, om, policy=p), ALL),
    "blas2-rgs": (lambda W, om, c, p: blas2_rgs(W, om, policy=p), ALL),
    "cgs": (lambda W, om, c, p: cgs(W, policy=p), None),
    "mgs": (lambda W, om, c, p: mgs(W, policy=p), None),
    "hqr": (lambda W, om, c, p: householder_qr(W, scaling=c.scaling, policy=p), None),
    "rcholqr": (lambda W, om, c, p: rand_cholesky_qr(W, om, policy=p), ALL),
}
FACTOR_ALGOS = tuple(ALGOS)
# the solvers run_gmres_experiment runs
GMRES_ALGOS = ("rhqr", "rgs")


class MetricRow(NamedTuple):
    j: int
    cond_q: float
    cond_sq: float
    fro_rel_err: float
    max_col_rel_err: float
    orth_err: float
    status: str


class GmresRow(NamedTuple):
    j: int
    sketched_resid: float
    true_resid: float
    relation_err: float
    cond_basis: float
    status: str


@dataclass
class ExperimentConfig:
    algo: str
    sketch: str = "srht"
    ell: int = 0            # 0 means the 4m default
    s: int = 8              # nonzeros per column for the sparse sign sketch
    seed: int = 0
    precision: str = "double"
    every: int = 25
    scaling: str = "sqrt2"
    block_size: int = 32
    deterministic: bool = False

    def __post_init__(self):
        if self.sketch not in SKETCH_KINDS:
            raise ValueError(f"unknown sketch {self.sketch!r}, expected one of {SKETCH_KINDS}")
        check_scaling(self.scaling)
        policy_from_tag(self.precision)
        for name in ("ell", "s", "seed", "every", "block_size"):
            setattr(self, name, _integer(name, getattr(self, name)))
        if self.every < 1:
            raise ValueError(f"metric stride every={self.every} must be >= 1")
        if self.ell < 0:
            raise ValueError(
                f"sampling size ell={self.ell} must be >= 1 (0 picks the default)")
        if self.s < 1:
            raise ValueError(f"nonzeros per column s={self.s} must be >= 1")
        if self.block_size < 1:
            raise ValueError(f"block_size={self.block_size} must be >= 1")

    def sampling_size(self, cols):
        """ell, or its default 4 * cols for a run over cols columns."""
        return self.ell or 4 * cols


def gen_cmatrix(n, m):
    """Oscillatory test matrix: entry (i,j) is
    sin(10*(mu+x)) / (cos(100*(mu-x)) + 1.1) at x=(i-1)/(n-1), mu=(j-1)/(m-1).

    Well conditioned for small widths, numerically singular once enough
    columns are taken; evaluated in double.
    """
    if n < 2 or m < 2:
        raise ValueError("need n >= 2 and m >= 2")
    x = np.arange(n) / (n - 1.0)
    mu = np.arange(m) / (m - 1.0)
    return np.sin(10.0 * (mu[None, :] + x[:, None])) / (
        np.cos(100.0 * (mu[None, :] - x[:, None])) + 1.1)


def sample_widths(m, every):
    js = list(range(every, m + 1, every))
    if not js or js[-1] != m:
        js.append(m)
    return js


def _nan_row(j, status):
    return MetricRow(j, np.nan, np.nan, np.nan, np.nan, np.nan, status)


def _measure(j, Wl, Q, R, SQ, status="ok"):
    errs = factorization_errors(Wl[:, :j], Q, R)
    return MetricRow(
        j=j,
        cond_q=cond_number(Q),
        cond_sq=cond_number(SQ),
        fro_rel_err=errs.fro_rel_err,
        max_col_rel_err=errs.max_col_rel_err,
        orth_err=orthogonality_error(SQ),
        status=status,
    )


def run_factor_experiment(W, config):
    """Metric rows for config.algo on the leading j columns of W,
    j = every, 2*every, ..., m, all read off one run on W.  A breakdown at
    column c yields rows with a 'breakdown@c' status (and NaN metrics) from
    the first affected width on.  W's columns are checked once up front:
    from the first column c holding a NaN or an infinity on, rows get NaN
    metrics and status 'nonfinite@c', unless a breakdown at an earlier
    column names them.  A W that is not a matrix with n >= m raises ValueError.
    """
    if config.algo not in ALGOS:
        raise ValueError(f"unknown algorithm {config.algo!r}")
    call, sketch_rows = ALGOS[config.algo]
    policy = policy_from_tag(config.precision)
    W = check_matrix(as_array(W))
    n, m = W.shape
    ell = config.sampling_size(m)
    if sketch_rows and config.sketch == "sparse":
        SparseSignSketch.nonzeros(config.s, ell)
    # errors are measured in float64 against the storage-rounded input
    Wl = W if policy.low_dtype == np.float64 else as_array(round_to(W, policy.low))
    bad = np.flatnonzero(~np.isfinite(W).all(axis=0))
    attained, status = (int(bad[0]), f"nonfinite@{bad[0] + 1}") if bad.size else (m, "ok")
    out = broke = None
    while attained > 0:
        omega = None
        if sketch_rows:
            omega = make_sketch(config.sketch, ell, n - attained if sketch_rows == TRAILING else n,
                                config.seed, s=config.s)
        try:
            out = call(W[:, :attained], omega, config, policy)
            break
        except (BreakdownError, PrecisionRangeError) as exc:
            # measure the columns before the failure by a run on them alone
            # (an [I; Omega] embedding is rebuilt for its width)
            col = getattr(exc, "column", attained)
            broke = broke or f"breakdown@{col}"
            attained = min(col - 1, attained - 1)
    return [_nan_row(j, broke or status) if j > attained
            else _measure(j, Wl, *_q_r_sq(out, j)) for j in sample_widths(m, config.every)]


def _q_r_sq(out, j):
    """(Q, R, sketched Q) of the leading j columns of a factorization,
    materialized in float64 by the factorization's own type."""
    if isinstance(out, RHQRFactors):
        f = out.prefix(j)
        Q = thin_q(f)
        return Q, f.R, f.psi.apply(Q)
    if isinstance(out, TrimFactors):
        f = out.prefix(j)
        Q = trim_thin_q(f)
        return Q, f.R, f.omega.apply(Q)
    Q = out.Q[:, :j]
    omega = out.aux.get("omega")
    return Q, out.R[:j, :j], Q if omega is None else omega.apply(Q)


def run_gmres_experiment(A, b, m, config, x0=None):
    """Per-iteration GMRES metrics for an algo of GMRES_ALGOS: sketched and
    true residuals, the scaled Arnoldi relation error
    ||A Q_j - Q_{j+1} H_j||_F / (||A||_F ||Q_j||_F), and cond(Q_{j+1}).

    A is a scipy sparse or a dense matrix; a callable has no Frobenius norm
    to scale by and raises TypeError.  A non-finite Krylov column, r0
    included, raises BreakdownError (nonfinite_input)."""
    if callable(A):
        raise TypeError("run_gmres_experiment needs a sparse or dense matrix, not a callable")
    if config.algo not in GMRES_ALGOS:
        raise ValueError(f"unknown solver {config.algo!r}, expected one of {GMRES_ALGOS}")
    policy = policy_from_tag(config.precision)
    b, x0, m = _krylov_input(A, b, x0, m)
    n = b.shape[0]
    ell = config.sampling_size(m + 1)
    anorm = _operator_fro_norm(A)
    if config.algo == "rhqr":
        omega = make_sketch(config.sketch, ell, n - m - 1, config.seed, s=config.s)
        bundle = rhqr_arnoldi(A, b, x0, m, omega, scaling=config.scaling,
                              policy=policy)
        H, beta = bundle.H, bundle.beta
        Qext = arnoldi_q(bundle)

        def apply_basis(y):
            return _apply_basis(bundle, y, policy)
    else:
        omega = make_sketch(config.sketch, ell, n, config.seed, s=config.s)
        Qext, H, beta, _ = rgs_arnoldi(A, b, x0, m, omega, policy=policy)

        def apply_basis(y):
            return Qext[:, :y.shape[0]] @ y
    k = H.shape[1]
    matvec = _as_operator(A)
    AQ = np.stack([matvec(Qext[:, i]) for i in range(min(k, Qext.shape[1]))], axis=1) \
        if k else np.zeros((n, 0))
    rows = []
    status = "ok" if k == m else f"closed@{k}"
    for j in range(1, k + 1):
        x, hist = _gmres_solve(H[: j + 1, :j], beta, x0, apply_basis)
        ncols = min(j + 1, Qext.shape[1])
        rel = np.linalg.norm(AQ[:, :j] - Qext[:, :ncols] @ H[:ncols, :j])
        rel /= anorm * max(np.linalg.norm(Qext[:, :j]), 1e-300)
        rows.append(GmresRow(
            j=j,
            sketched_resid=float(hist[-1]),
            true_resid=float(np.linalg.norm(b - matvec(x))),
            relation_err=float(rel),
            cond_basis=cond_number(Qext[:, :ncols]),
            status=status,
        ))
    return rows


def _operator_fro_norm(A):
    if scipy.sparse.issparse(A):
        return float(np.sqrt(A.multiply(A).sum()))
    return float(np.linalg.norm(as_array(A)))


def write_csv(path, rows, config=None, extra=None):
    """Rows to CSV with 17 significant digits; a commented header echoes the
    config and, unless the config is deterministic, a timestamp."""
    fields = rows[0]._fields if rows else MetricRow._fields
    with open(path, "w") as fh:
        if config is not None:
            fh.write(f"# {config}\n")
            if not config.deterministic:
                fh.write(f"# written {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        if extra:
            fh.write(f"# {extra}\n")
        fh.write(",".join(fields) + "\n")
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, str):
                    cells.append(v)
                elif isinstance(v, (int, np.integer)):
                    cells.append(str(int(v)))
                else:
                    cells.append(f"{v:.17g}")
            fh.write(",".join(cells) + "\n")
