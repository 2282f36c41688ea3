#!/usr/bin/env bash
# Mixed-precision sweep: n-dimensional storage, updates, and sketching in
# half precision, all coefficient-sized algebra in double.  The sketched
# basis stays orthonormal at the half-precision noise floor.
set -euo pipefail
# one BLAS thread: the metrics' float64 products and SVDs change in their
# last digits with the thread count, and recipes/SHA256SUMS pins one
export OPENBLAS_NUM_THREADS=1
OUT=${OUT:-results}
mkdir -p "$OUT"

common=(--gen-n 4096 --gen-m 300 --l 1200 --sketch srht --seed 43
        --precision mixed --every 25 --deterministic)

python3 -m sketchqr factor --algo rhqr-left "${common[@]}" --out "$OUT/rhqr-mixed.csv"
python3 -m sketchqr factor --algo rgs       "${common[@]}" --out "$OUT/rgs-mixed.csv"

echo "wrote $OUT/{rhqr,rgs}-mixed.csv"
