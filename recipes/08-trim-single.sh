#!/usr/bin/env bash
# Single-precision version of 07: past the singular widths RGS's cond blows
# up by orders of magnitude while the trimmed sweep drifts slowly despite
# sampling only 200 rows for 300 columns.
set -euo pipefail
# one BLAS thread: the metrics' float64 products and SVDs change in their
# last digits with the thread count, and recipes/SHA256SUMS pins one
export OPENBLAS_NUM_THREADS=1
OUT=${OUT:-results}
mkdir -p "$OUT"

base=(--gen-n 4096 --gen-m 300 --sketch srht --precision single --every 25
      --deterministic)

python3 -m sketchqr factor --algo trim-left --l 200 --seed 42 "${base[@]}" \
    --out "$OUT/trim-single.csv"
python3 -m sketchqr factor --algo rgs --l 320 --seed 43 "${base[@]}" \
    --out "$OUT/rgs-l320-single.csv"

echo "wrote $OUT/{trim,rgs-l320}-single.csv"
