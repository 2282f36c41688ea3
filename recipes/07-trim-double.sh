#!/usr/bin/env bash
# Trimmed sweep with a sampling size BELOW the column count (l=200 < m=300)
# against RGS with l=320 > m, double precision.
set -euo pipefail
# one BLAS thread: the metrics' float64 products and SVDs change in their
# last digits with the thread count, and recipes/SHA256SUMS pins one
export OPENBLAS_NUM_THREADS=1
OUT=${OUT:-results}
mkdir -p "$OUT"

base=(--gen-n 4096 --gen-m 300 --sketch srht --precision double --every 25
      --deterministic)

python3 -m sketchqr factor --algo trim-left --l 200 --seed 42 "${base[@]}" \
    --out "$OUT/trim-double.csv"
python3 -m sketchqr factor --algo rgs --l 320 --seed 43 "${base[@]}" \
    --out "$OUT/rgs-l320-double.csv"

echo "wrote $OUT/{trim,rgs-l320}-double.csv"
