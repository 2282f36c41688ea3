#!/usr/bin/env bash
# GMRES convergence on a seeded nonsymmetric sparse operator: randomized
# Householder Arnoldi vs the RGS-based solver.  The CSVs log sketched and
# true residuals, the basis recurrence error, and cond of the basis.
#
# To run on the large matrices from the SuiteSparse collection instead
# (SiO2: 155331x155331, cond ~ 2.3e3; El3D: 32663x32663, cond ~ 1e28),
# download them in Matrix Market format, e.g.
#   curl -LO https://suitesparse-collection-website.herokuapp.com/MM/PARSEC/SiO2.tar.gz
#   tar xf SiO2.tar.gz    # then pass --matrix SiO2/SiO2.mtx
# and raise --iters; those runs are not part of the gating test suite.
set -euo pipefail
# one BLAS thread: the metrics' float64 products and SVDs change in their
# last digits with the thread count, and recipes/SHA256SUMS pins one
export OPENBLAS_NUM_THREADS=1
OUT=${OUT:-results}
mkdir -p "$OUT"

MTX="$OUT/operator.mtx"
python3 - "$MTX" <<'PY'
import sys
import numpy as np
import scipy.sparse
from sketchqr.mmio import write_matrix_market

n = 2000
rs = np.random.RandomState(909)
A = scipy.sparse.random(n, n, density=0.005, random_state=rs) \
    + 2.0 * scipy.sparse.identity(n)
write_matrix_market(sys.argv[1], A.tocsc(), comment=f"seeded sparse test operator n={n}")
PY

common=(--matrix "$MTX" --rhs random:7 --iters 60 --sketch gauss --seed 910
        --deterministic)

python3 -m sketchqr gmres --algo rhqr "${common[@]}" --out "$OUT/gmres-rhqr.csv"
python3 -m sketchqr gmres --algo rgs  "${common[@]}" --out "$OUT/gmres-rgs.csv"

echo "wrote $OUT/gmres-{rhqr,rgs}.csv"
