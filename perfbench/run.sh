#!/usr/bin/env bash
# Build the benchmark harness and the CLI from source, then run one
# workload:  bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# The build stays inside the checkout: no shared dune cache.
DUNE_CACHE=disabled dune build --root . ./perfbench/harness.exe ./bin/thistle_cli.exe 1>&2
exec ./_build/default/perfbench/harness.exe "$@"
