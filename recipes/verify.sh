#!/usr/bin/env bash
# Run recipes 01-08 from this checkout's sources at their desk defaults,
# then check the CSVs they write under results/ against recipes/SHA256SUMS.
# Exits non-zero on any mismatch.  Each recipe runs on one BLAS thread
# (OPENBLAS_NUM_THREADS=1), the count the hashes were recorded with.
set -euo pipefail
cd "$(dirname "$0")/.."
unset OUT N M L
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
for recipe in recipes/0[1-8]-*.sh; do
    bash "$recipe"
done
sha256sum -c recipes/SHA256SUMS
