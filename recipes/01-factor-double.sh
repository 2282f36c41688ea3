#!/usr/bin/env bash
# Double-precision stability sweep on the oscillatory test matrix:
# randomized Householder QR against RGS (plus the deterministic baseline).
# Compare cond_q / orth_err / fro_rel_err columns across the three CSVs.
set -euo pipefail
# one BLAS thread: the metrics' float64 products and SVDs change in their
# last digits with the thread count, and recipes/SHA256SUMS pins one
export OPENBLAS_NUM_THREADS=1
OUT=${OUT:-results}
mkdir -p "$OUT"

N=${N:-4096} M=${M:-300} L=${L:-1200}
# full-scale variant (slow, needs ~12 GB): N=50000 M=1500 L=6000

common=(--gen-n "$N" --gen-m "$M" --l "$L" --sketch srht --seed 43
        --precision double --every 25 --deterministic)

python3 -m sketchqr factor --algo rhqr-left "${common[@]}" --out "$OUT/rhqr-double.csv"
python3 -m sketchqr factor --algo rgs       "${common[@]}" --out "$OUT/rgs-double.csv"
python3 -m sketchqr factor --algo hqr       "${common[@]}" --out "$OUT/hqr-double.csv"

echo "wrote $OUT/{rhqr,rgs,hqr}-double.csv"
