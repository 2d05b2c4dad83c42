#!/usr/bin/env bash
# Builds the benchmark against the ansor library of this checkout, then
# runs it with the given arguments:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run it from the root of the checkout.  Build output goes to stderr; the
# last line of stdout is the result.
set -euo pipefail
dune build --root . --cache=disabled --display=quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
