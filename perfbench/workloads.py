"""The four workloads: inputs made from a seed, the timed operations, the
output checks, and output digests for bitwise comparison.

Every operation is looked up through its module at call time, so the
traced run's rebinding reaches the calls made from here too.
"""

import dataclasses
import hashlib
import os

import numpy as np
import scipy.sparse

from sketchqr import baselines, experiments, krylov, linalg, mmio, precision, rhqr, sketching, trim


@dataclasses.dataclass
class Op:
    name: str           # the op-level metric is f"{name}_s"
    call: object        # no-argument callable returning the output
    check: object       # output -> {quantity: value}, each <= its tolerance


def sketch_seeds(seed, k):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def digest(obj):
    """blake2b over every array, number and string reachable in obj."""
    h = hashlib.blake2b(digest_size=16)
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, x):
    if isinstance(x, np.ndarray):
        h.update(f"{x.dtype}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif scipy.sparse.issparse(x):
        x = x.tocsc()
        for a in (x.data, x.indices, x.indptr):
            _feed(h, a)
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            _feed(h, getattr(x, f.name))
    elif isinstance(x, (tuple, list)):
        for v in x:
            _feed(h, v)
    elif isinstance(x, dict):
        for k in sorted(x):
            h.update(k.encode())
            _feed(h, x[k])
    elif isinstance(x, str):
        h.update(x.encode())
    elif isinstance(x, (int, float, np.integer, np.floating)):
        h.update(float(x).hex().encode())
    # sketch operators and None carry no output values


def _residual(Wl, Q, R):
    return linalg.factorization_errors(Wl[:, :Q.shape[1]], Q, R).fro_rel_err


def _check_rhqr(Wl):
    def check(f):
        if isinstance(f, rhqr.BlockRHQRFactors):
            f = f.stacked()
        Q = rhqr.thin_q(f)
        return {"resid": _residual(Wl, Q, f.R),
                "sketch_orth": linalg.orthogonality_error(f.psi.apply(Q))}
    return check


def _check_trim(Wl):
    def check(f):
        Q = trim.trim_thin_q(f)
        return {"resid": _residual(Wl, Q, f.R),
                "sketch_orth": linalg.orthogonality_error(f.omega.apply(Q))}
    return check


def _check_hqr(Wl):
    def check(r):
        return {"resid": _residual(Wl, r.Q, r.R), "orth": linalg.orthogonality_error(r.Q)}
    return check


def _check_sketched(Wl, omega):
    def check(r):
        return {"resid": _residual(Wl, r.Q, r.R),
                "sketch_orth": linalg.orthogonality_error(omega.apply(r.Q))}
    return check


def _check_sweep(rows):
    bad = sum(r.status != "ok" or not np.isfinite(r.fro_rel_err) for r in rows)
    return {"not_ok_rows": float(bad),
            "resid": max(r.fro_rel_err for r in rows),
            "sketch_orth": max(r.orth_err for r in rows)}


def factor_workload(cfg, seed):
    """desk, tall and mixed: the cfunc matrix and SRHT sketches."""
    n, m, ell = cfg["n"], cfg["m"], cfg["ell"]
    policy = precision.policy_from_tag(cfg["precision"])
    s_embed, s_full = sketch_seeds(seed, 2)
    W = experiments.gen_cmatrix(n, m)
    om_e = sketching.SRHTSketch(ell, n - m, s_embed)   # trailing n-m rows
    om = sketching.SRHTSketch(ell, n, s_full)          # all n rows
    Wl = precision.round_to(W, policy.low)
    k = cfg.get("rgs_cols", m)
    table = {
        "rhqr_left": (lambda: rhqr.rhqr_left(W, om_e, policy=policy), _check_rhqr(Wl)),
        "rhqr_block": (lambda: rhqr.rhqr_block(W, om_e, block_size=cfg["block_size"], policy=policy),
                       _check_rhqr(Wl)),
        "rec_rhqr": (lambda: rhqr.rec_rhqr(W, om_e, policy=policy), _check_rhqr(Wl)),
        "trim_left": (lambda: trim.trim_rhqr_left(W, om, policy=policy), _check_trim(Wl)),
        "hqr": (lambda: baselines.householder_qr(W, policy=policy), _check_hqr(Wl)),
        "blas2_rgs": (lambda: baselines.blas2_rgs(W, om, policy=policy), _check_sketched(Wl, om)),
        "rcholqr": (lambda: baselines.rand_cholesky_qr(W, om, policy=policy), _check_sketched(Wl, om)),
        "rgs": (lambda: baselines.rgs(W[:, :k], om, policy=policy), _check_sketched(Wl, om)),
        "sweep": (lambda: experiments.run_factor_experiment(W, experiments.ExperimentConfig(
            algo="rhqr-left", ell=ell, seed=s_embed, every=cfg["sweep_every"],
            precision=cfg["precision"])), _check_sweep),
    }
    return [Op(name, *table[name]) for name in cfg["ops"]], {}


def gmres_operator(cfg, seed):
    """Sparse nonsymmetric A = B + shift*I, B with nnz_per_row N(0, 1/nnz_per_row)
    entries per row at uniform columns, and a standard normal rhs."""
    n, k = cfg["n"], cfg["nnz_per_row"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    rows = np.repeat(np.arange(n), k)
    cols = rng.integers(0, n, n * k)
    vals = rng.normal(0.0, k ** -0.5, n * k)
    A = scipy.sparse.csc_array((vals, (rows, cols)), shape=(n, n))
    A = (A + cfg["shift"] * scipy.sparse.eye_array(n, format="csc")).tocsc()
    return A, rng.standard_normal(n)


def gmres_workload(cfg, seed, workdir, matvec=None):
    """Matrix Market load and the two sketched GMRES solvers.  `matvec`
    replaces the operator in the solvers (the traced run passes a recording
    callable around the same matrix)."""
    n, iters, s = cfg["n"], cfg["iters"], cfg["s"]
    ell = cfg["ell_per_iter"] * (iters + 1)
    A, b = gmres_operator(cfg, seed)
    s_embed, s_full = sketch_seeds(seed, 2)
    om_e = sketching.SparseSignSketch(ell, n - iters - 1, s_embed, s=s)
    om = sketching.SparseSignSketch(ell, n, s_full, s=s)
    path = os.path.join(workdir, "operator.mtx")
    mmio.write_matrix_market(path, A)
    op = A if matvec is None else matvec(A)
    bnorm = float(np.linalg.norm(b))

    def true_resid(out):
        x, _ = out
        return {"true_resid": float(np.linalg.norm(b - A @ x)) / bnorm}

    def same_matrix(L):
        return {"mismatch": float((abs(L - A) > 0).nnz)}

    table = {
        "mtx_load": (lambda: mmio.load_matrix_market(path), same_matrix),
        "gmres_rhqr": (lambda: krylov.rhqr_gmres(op, b, None, iters, om_e), true_resid),
        "gmres_rgs": (lambda: krylov.rgs_gmres(op, b, None, iters, om), true_resid),
    }
    return [Op(name, *table[name]) for name in cfg["ops"]], {"mtx_bytes": os.path.getsize(path)}


def build(cfg, seed, workdir, matvec=None):
    """(ops, info) of one workload; info carries sizes the metrics need."""
    if cfg["kind"] == "gmres":
        return gmres_workload(cfg, seed, workdir, matvec)
    return factor_workload(cfg, seed)


def iters_to_tol(out, tol):
    """First iteration whose sketched residual is within tol of the start."""
    _, hist = out
    hit = np.nonzero(hist <= tol * hist[0])[0]
    return int(hit[0]) if hit.size else len(hist)


# computed cost model (double storage), see README.md

def srht_cost(rows):
    """(flops, bytes) of one SRHT column sketch of `rows` inputs: scale and
    sign flip, log2(n_pad) butterfly passes, one normalization, each pass
    reading and writing the padded column once."""
    n_pad = 1 << (rows - 1).bit_length()
    passes = n_pad.bit_length() - 1
    return n_pad * (passes + 1) + 2 * rows, 16 * (n_pad * (passes + 1) + rows)


def rhqr_left_cost(n, m):
    """2m-1 sketches of the trailing n-m rows; column c's update w -= U c
    reads U[:, :c] once: 2nc flops."""
    f1, b1 = srht_cost(n - m)
    sk = 2 * m - 1
    return {"sketch_flop": sk * f1, "update_flop": n * m * (m - 1),
            "bytes": sk * b1 + 4 * n * m * (m - 1) + 16 * n * m}


def hqr_cost(n, m):
    """Column c does U^T w, U coef and U^T u over U[:, :c] (3 reads, 6nc
    flops); the explicit Q = [I;0] - U T U1^t adds 2nm^2."""
    return {"update_flop": 3 * n * m * (m - 1), "thin_q_flop": 2 * n * m * m,
            "bytes": 12 * n * m * (m - 1) + 8 * 3 * n * m}


COST_METRICS = (
    "cost.rhqr_left_sketch_gflop", "cost.rhqr_left_update_gflop", "cost.rhqr_left_gbytes",
    "cost.rhqr_left_gflop_per_s", "cost.rhqr_left_flop_per_byte", "cost.hqr_update_gflop",
    "cost.hqr_thin_q_gflop", "cost.hqr_gbytes", "cost.hqr_gflop_per_s", "cost.hqr_flop_per_byte",
    "cost.rhqr_over_hqr_flop", "cost.rhqr_over_hqr_time")


def cost_metrics(cfg, med):
    """Computed cost counts of rhqr_left and hqr, rates over the measured
    median seconds `med`; all 0 unless the workload runs both in double."""
    if cfg.get("precision") != "double" or not {"rhqr_left", "hqr"} <= set(cfg["ops"]):
        return dict.fromkeys(COST_METRICS, 0.0)
    n, m = cfg["n"], cfg["m"]
    r, h = rhqr_left_cost(n, m), hqr_cost(n, m)
    r_flop = r["sketch_flop"] + r["update_flop"]
    h_flop = h["update_flop"] + h["thin_q_flop"]
    return {
        "cost.rhqr_left_sketch_gflop": r["sketch_flop"] / 1e9,
        "cost.rhqr_left_update_gflop": r["update_flop"] / 1e9,
        "cost.rhqr_left_gbytes": r["bytes"] / 1e9,
        "cost.rhqr_left_gflop_per_s": r_flop / 1e9 / med["rhqr_left"],
        "cost.rhqr_left_flop_per_byte": r_flop / r["bytes"],
        "cost.hqr_update_gflop": h["update_flop"] / 1e9,
        "cost.hqr_thin_q_gflop": h["thin_q_flop"] / 1e9,
        "cost.hqr_gbytes": h["bytes"] / 1e9,
        "cost.hqr_gflop_per_s": h_flop / 1e9 / med["hqr"],
        "cost.hqr_flop_per_byte": h_flop / h["bytes"],
        "cost.rhqr_over_hqr_flop": r_flop / h_flop,
        "cost.rhqr_over_hqr_time": med["rhqr_left"] / med["hqr"],
    }
