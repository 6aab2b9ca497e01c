#!/usr/bin/env bash
# Build the benchmark and the server from source, then run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout.  Build output goes to stderr, so
# the last line on stdout is the result object.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . perfbench/perfbench.exe bin/siri_serve.exe 1>&2
if [ -d .git ]; then
  PERFBENCH_GIT_COMMIT="$(git rev-parse HEAD 2>/dev/null || true)"
  export PERFBENCH_GIT_COMMIT
fi
exec ./_build/default/perfbench/perfbench.exe "$@"
