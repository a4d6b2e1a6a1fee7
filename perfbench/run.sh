#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given
# arguments: --workload W --seed N --seconds S --trace 0|1.
# Run from the repository root; see perfbench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
