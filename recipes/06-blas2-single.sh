#!/usr/bin/env bash
# The single-reduction Gram-Schmidt variant against plain RGS in single
# precision.  Its cond_sq column is the sketch of the uncorrected basis;
# the T-corrected sketched basis is exercised by the test suite.
set -euo pipefail
# one BLAS thread: the metrics' float64 products and SVDs change in their
# last digits with the thread count, and recipes/SHA256SUMS pins one
export OPENBLAS_NUM_THREADS=1
OUT=${OUT:-results}
mkdir -p "$OUT"

common=(--gen-n 4096 --gen-m 300 --l 1200 --sketch srht --seed 44
        --precision single --every 25 --deterministic)

python3 -m sketchqr factor --algo blas2-rgs "${common[@]}" --out "$OUT/blas2-single.csv"
python3 -m sketchqr factor --algo rgs       "${common[@]}" --out "$OUT/rgs-l1200-single.csv"

echo "wrote $OUT/{blas2,rgs-l1200}-single.csv"
