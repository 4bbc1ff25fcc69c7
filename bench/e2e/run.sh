#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it; run from the
# repository root:
#
#   bash bench/e2e/run.sh --workload closed-bare --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr, so standard output is the benchmark's own
# (its last line is the result JSON).  The dune cache stays off so the
# build writes nothing outside the checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
