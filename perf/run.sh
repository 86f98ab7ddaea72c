#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments.
# Run from the root of a checkout:  bash perf/run.sh --workload closed-macro
# Build output goes to stderr so the result stays the last stdout line.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artifact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./perf/xcperf.exe 1>&2
exec ./_build/default/perf/xcperf.exe "$@"
