#!/usr/bin/env bash
# Same sweep as 01 but in single precision, where RGS visibly degrades past
# the width where the input turns numerically singular (~column 150 at this
# scale) while the Householder-based sweep keeps cond(Q) near 2.
set -euo pipefail
# one BLAS thread: the metrics' float64 products and SVDs change in their
# last digits with the thread count, and recipes/SHA256SUMS pins one
export OPENBLAS_NUM_THREADS=1
OUT=${OUT:-results}
mkdir -p "$OUT"

N=${N:-4096} M=${M:-300} L=${L:-1200}

common=(--gen-n "$N" --gen-m "$M" --l "$L" --sketch srht --seed 43
        --precision single --every 25 --deterministic)

python3 -m sketchqr factor --algo rhqr-left "${common[@]}" --out "$OUT/rhqr-single.csv"
python3 -m sketchqr factor --algo rgs       "${common[@]}" --out "$OUT/rgs-single.csv"

echo "wrote $OUT/{rhqr,rgs}-single.csv"
