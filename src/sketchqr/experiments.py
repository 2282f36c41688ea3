"""Benchmark sweeps: factorize growing column prefixes (or iterate a GMRES
solve) and emit per-step stability metrics as CSV.

All metrics are computed in double on explicitly materialized thin-Q
factors, whatever precision the algorithm itself ran in, and errors are
measured against the storage-rounded input (the matrix the low-precision
run actually saw).  Left-looking methods are factored once and sampled at
column prefixes; sketch-then-factor methods (rec-rhqr, rcholqr) are rerun
per sampled width since their output depends on the full input.
"""

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse

from .baselines import blas2_rgs, cgs, householder_qr, mgs, rand_cholesky_qr, rgs
from .krylov import _apply_basis, _as_operator, _gmres_solve, arnoldi_q, rgs_arnoldi, rhqr_arnoldi
from .linalg import (
    BreakdownError,
    as_array,
    cond_number,
    factorization_errors,
    orthogonality_error,
)
from .precision import PrecisionRangeError, policy_from_tag, round_to
from .rhqr import rec_rhqr, rhqr_block, rhqr_left, rhqr_right, thin_q
from .sketching import make_sketch
from .trim import trim_rhqr_left, trim_rhqr_right, trim_thin_q

FACTOR_ALGOS = ("rhqr-left", "rhqr-right", "rhqr-block", "rec-rhqr",
                "trim-left", "trim-right", "rgs", "blas2-rgs", "cgs", "mgs",
                "hqr", "rcholqr")
EMBEDDED_ALGOS = ("rhqr-left", "rhqr-right", "rhqr-block", "rec-rhqr")
RERUN_ALGOS = ("rec-rhqr", "rcholqr")


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
        if self.every < 1:
            raise ValueError("metric stride must be >= 1")
        if self.ell < 0:
            raise ValueError("sampling size must be >= 1 (0 picks the default)")


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
    j = every, 2*every, ..., m.  A breakdown at column c yields rows with a
    'breakdown@c' status (and NaN metrics) from the first affected width on.
    """
    if config.algo not in FACTOR_ALGOS:
        raise ValueError(f"unknown algorithm {config.algo!r}")
    policy = policy_from_tag(config.precision)
    W = as_array(W)
    n, m = W.shape
    ell = config.ell or 4 * m
    Wl = round_to(W, policy.low)
    js = sample_widths(m, config.every)
    if config.algo in RERUN_ALGOS:
        return _rerun_sweep(W, Wl, config, policy, ell, js)
    return _prefix_sweep(W, Wl, config, policy, ell, js)


def _factor_once(W, config, policy, ell):
    n, m = W.shape
    algo = config.algo
    if algo in EMBEDDED_ALGOS:
        omega = make_sketch(config.sketch, ell, n - m, config.seed, s=config.s)
    elif algo in ("cgs", "mgs", "hqr"):
        omega = None
    else:
        omega = make_sketch(config.sketch, ell, n, config.seed, s=config.s)
    if algo == "rhqr-left":
        return rhqr_left(W, omega, scaling=config.scaling, policy=policy)
    if algo == "rhqr-right":
        return rhqr_right(W, omega, scaling=config.scaling, policy=policy)
    if algo == "rhqr-block":
        return rhqr_block(W, omega, block_size=config.block_size,
                          scaling=config.scaling, policy=policy)
    if algo == "rec-rhqr":
        return rec_rhqr(W, omega, scaling=config.scaling, policy=policy)
    if algo == "trim-left":
        return trim_rhqr_left(W, omega, scaling=config.scaling, policy=policy)
    if algo == "trim-right":
        return trim_rhqr_right(W, omega, scaling=config.scaling, policy=policy)
    if algo == "rgs":
        return rgs(W, omega, policy=policy)
    if algo == "blas2-rgs":
        return blas2_rgs(W, omega, policy=policy)
    if algo == "cgs":
        return cgs(W, policy=policy)
    if algo == "mgs":
        return mgs(W, policy=policy)
    if algo == "hqr":
        return householder_qr(W, scaling=config.scaling, policy=policy)
    return rand_cholesky_qr(W, omega, policy=policy)


def _prefix_rows(out, config, j, Wl):
    """Materialize (Q, R, sketched Q) for the leading j columns of a full-run
    factorization object."""
    algo = config.algo
    if algo.startswith("rhqr"):
        f = out.prefix(j)
        Q = thin_q(f)
        return Q, f.R, f.psi.apply(Q)
    if algo.startswith("trim"):
        f = out.prefix(j)
        Q = trim_thin_q(f)
        return Q, f.R, f.omega.apply(Q)
    Q = out.Q[:, :j]
    R = out.R[:j, :j]
    if algo in ("cgs", "mgs", "hqr"):
        return Q, R, Q
    return Q, R, out.aux["omega"].apply(Q)


def _prefix_sweep(W, Wl, config, policy, ell, js):
    attained = W.shape[1]
    status = "ok"
    out = None
    while attained > 0:
        try:
            out = _factor_once(W[:, :attained], config, policy, ell)
            break
        except (BreakdownError, PrecisionRangeError) as exc:
            # keep the columns before the failure; the sweeps are
            # left-looking, so a run on the shortened input is the same
            # computation (the embedded sketch is rebuilt for its width)
            col = getattr(exc, "column", attained)
            if status == "ok":
                status = f"breakdown@{col}"
            attained = min(col - 1, attained - 1)
    rows = []
    for j in js:
        if j > attained:
            rows.append(_nan_row(j, status))
            continue
        Q, R, SQ = _prefix_rows(out, config, j, Wl)
        rows.append(_measure(j, Wl, Q, R, SQ))
    return rows


def _rerun_sweep(W, Wl, config, policy, ell, js):
    rows = []
    for j in js:
        try:
            out = _factor_once(W[:, :j], config, policy, ell)
        except (BreakdownError, PrecisionRangeError) as exc:
            rows.append(_nan_row(j, f"breakdown@{getattr(exc, 'column', j)}"))
            continue
        if config.algo == "rec-rhqr":
            Q = thin_q(out)
            rows.append(_measure(j, Wl, Q, out.R, out.psi.apply(Q)))
        else:
            Q = out.Q
            rows.append(_measure(j, Wl, Q, out.R, out.aux["omega"].apply(Q)))
    return rows


def run_gmres_experiment(A, b, m, config, x0=None):
    """Per-iteration GMRES metrics for algo 'rhqr' or 'rgs': sketched and
    true residuals, the scaled Arnoldi relation error
    ||A Q_j - Q_{j+1} H_j||_F / (||A||_F ||Q_j||_F), and cond(Q_{j+1}).

    A is a scipy sparse or a dense matrix; a callable has no Frobenius norm
    to scale by and raises TypeError."""
    if callable(A):
        raise TypeError("run_gmres_experiment needs a sparse or dense matrix, not a callable")
    policy = policy_from_tag(config.precision)
    b = as_array(b)
    n = b.shape[0]
    x0 = np.zeros(n) if x0 is None else as_array(x0)
    ell = config.ell or 4 * (m + 1)
    anorm = _operator_fro_norm(A)
    if config.algo == "rhqr":
        omega = make_sketch(config.sketch, ell, n - m - 1, config.seed, s=config.s)
        bundle = rhqr_arnoldi(A, b, x0, m, omega, scaling=config.scaling,
                              policy=policy)
        H, beta = bundle.H, bundle.beta
        Qext = arnoldi_q(bundle, min(bundle.dim + 1, bundle.U.shape[1]))

        def apply_basis(y):
            return _apply_basis(bundle, y, policy)
    elif config.algo == "rgs":
        omega = make_sketch(config.sketch, ell, n, config.seed, s=config.s)
        Qext, H, beta, _ = rgs_arnoldi(A, b, x0, m, omega, policy=policy)

        def apply_basis(y):
            return Qext[:, :y.shape[0]] @ y
    else:
        raise ValueError(f"unknown solver {config.algo!r}")
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
