"""Single-precision bits, and double's at desk size, depend on the data
alone.

Every float32 and float64 product goes to BLAS with its operands as
stored, and every basis store is column-major with leading dimension n, so
the bits of a sweep must not depend on how many columns it is given, on
where its input sits in memory, or on the BLAS thread count.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sketchqr.baselines import householder_qr, rgs
from sketchqr.experiments import gen_cmatrix
from sketchqr.precision import policy_from_tag
from sketchqr.sketching import make_sketch
from sketchqr.trim import normalize_leading_columns, trim_rhqr_left

SINGLE = policy_from_tag("single")


@pytest.fixture(scope="module")
def cmatrix():
    return gen_cmatrix(1024, 96)


def _rgs(W, kind):
    out = rgs(W, make_sketch(kind, 384, W.shape[0], 5), policy=SINGLE)
    return out.Q, out.R


def _hqr(W, kind):
    out = householder_qr(W, policy=SINGLE)
    return out.aux["U"], out.aux["T"], out.R


def _trim(W, kind):
    # one operator normalized for all 96 columns, as a prefix run must share
    # the full run's sketch
    om = normalize_leading_columns(make_sketch(kind, 64, W.shape[0], 6), 96)
    F = trim_rhqr_left(W, om, policy=SINGLE)
    return F.U, F.T, F.R


@pytest.mark.parametrize("factor,kind", [(_rgs, "srht"), (_rgs, "sparse"), (_hqr, None),
                                         (_trim, "srht"), (_trim, "sparse")],
                         ids=["rgs-srht", "rgs-sparse", "householder_qr", "trim-srht",
                              "trim-sparse"])
def test_single_prefix_run_is_the_leading_block(cmatrix, factor, kind):
    # householder_qr's Q is a float64 GEMM whose bits follow its shape, so its
    # U, T and R are compared instead
    full = factor(cmatrix, kind)
    for j in (10, 33, 50, 95):
        for whole, part in zip(full, factor(cmatrix[:, :j], kind)):
            lead = whole[:j, :j] if whole.shape[0] == whole.shape[1] else whole[:, :j]
            assert np.array_equal(lead, part), (j, whole.shape)


_DESK_RUNS = """
import hashlib, json, sys
import numpy as np
from sketchqr.baselines import rgs
from sketchqr.experiments import gen_cmatrix
from sketchqr.precision import policy_from_tag
from sketchqr.rhqr import rhqr_left
from sketchqr.sketching import SRHTSketch
from sketchqr.trim import trim_rhqr_left

policy = policy_from_tag(sys.argv[1])
W0 = gen_cmatrix(4096, 300).astype(policy.low_dtype)
n, m = W0.shape
runs = {
    "rhqr_left": lambda W: rhqr_left(W, SRHTSketch(1200, n - m, 43), policy=policy),
    "rgs": lambda W: rgs(W, SRHTSketch(1200, n, 43), policy=policy),
    "trim_rhqr_left": lambda W: trim_rhqr_left(W, SRHTSketch(200, n, 42), policy=policy),
}
fields = ("Q", "U", "S", "T", "T_tilde", "L", "R")
out = {}
for offset in map(int, sys.argv[3:]):
    # the input, read in place, starts `offset` entries into a fresh buffer
    buf = np.empty(W0.size + offset, dtype=W0.dtype)
    W = buf[offset:].reshape(n, m)
    W[...] = W0
    for name in sys.argv[2].split(","):
        run = runs[name]
        h = hashlib.blake2b(digest_size=16)
        F = run(W)
        for a in (getattr(F, f) for f in fields if hasattr(F, f)):
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
        out[f"{name}@{offset}"] = h.hexdigest()
print(json.dumps(out))
"""


def _run_at_threads(code, *args):
    """{BLAS thread count: the JSON that `python -c code *args` prints},
    run at one and two threads side by side."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    procs = {}
    for t in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(t))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        procs[t] = subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                                    stdout=subprocess.PIPE, text=True)
    digests = {}
    for t, p in procs.items():
        out, _ = p.communicate(timeout=600)
        assert p.returncode == 0
        digests[t] = json.loads(out)
    return digests


def _check_desk_bits(tag, names):
    # the same bits at one and two BLAS threads and at three input offsets
    digests = _run_at_threads(_DESK_RUNS, tag, ",".join(names), "0", "1", "3")
    assert digests[1] == digests[2]
    for name in names:
        assert len({digests[1][f"{name}@{k}"] for k in (0, 1, 3)}) == 1, name


def test_single_desk_bits_hold_across_threads_and_offsets():
    # householder_qr and multi-panel rhqr_block are left out, in double too:
    # the threaded BLAS splits their n-long reductions and panel GEMMs, so
    # their bits follow the thread count at this size
    _check_desk_bits("single", ("rhqr_left", "rgs", "trim_rhqr_left"))


def test_double_desk_bits_hold_across_threads_and_offsets():
    _check_desk_bits("double", ("rhqr_left", "rgs"))


_SRHT_APPLIES = """
import hashlib, json
import numpy as np
from sketchqr.sketching import SRHTSketch

op = SRHTSketch(768, 16192, 17)
X = np.random.default_rng(5).standard_normal((16192, 192))
out = {}
for dtype in ("float64", "float32", "float16"):
    Xd = X.astype(dtype)
    for name, Y in (("block", op.apply(Xd, dtype=dtype)), ("single", op.apply(Xd[:, 7], dtype=dtype))):
        out[f"{dtype}-{name}"] = hashlib.blake2b(Y.tobytes(), digest_size=16).hexdigest()
print(json.dumps(out))
"""


def test_srht_bits_hold_across_threads():
    # n_pad 16384, the tall size: each Kronecker factor's GEMM is large
    # enough for the threaded BLAS to split, but never along its <= 16 terms
    digests = _run_at_threads(_SRHT_APPLIES)
    assert len(digests[1]) == 6
    assert digests[1] == digests[2]
