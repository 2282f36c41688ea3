#!/usr/bin/env bash
# The two single-synchronization factorizations head to head: reconstructed
# randomized Householder QR vs randomized Cholesky QR.  Both are rerun from
# scratch at every sampled width (their output depends on the full input).
set -euo pipefail
# one BLAS thread: the metrics' float64 products and SVDs change in their
# last digits with the thread count, and recipes/SHA256SUMS pins one
export OPENBLAS_NUM_THREADS=1
OUT=${OUT:-results}
mkdir -p "$OUT"

common=(--gen-n 4096 --gen-m 300 --l 1200 --sketch srht --seed 45
        --precision double --every 25 --deterministic)

python3 -m sketchqr factor --algo rec-rhqr "${common[@]}" --out "$OUT/rec-rhqr.csv"
python3 -m sketchqr factor --algo rcholqr  "${common[@]}" --out "$OUT/rcholqr.csv"

echo "wrote $OUT/{rec-rhqr,rcholqr}.csv"
