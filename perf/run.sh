#!/usr/bin/env bash
# Build the benchmark from source and measure one workload:
#   bash perf/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the result as one JSON object.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perf/perf.exe 1>&2
exec ./_build/default/perf/perf.exe bench "$@"
