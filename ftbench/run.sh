#!/bin/sh
# Builds the ftsched CLI and the benchmark from source, then runs one
# workload.  Run from the root of the repository:
#   sh ftbench/run.sh --workload paper|scale|serve --seed N --seconds S --trace 0|1
set -eu
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --cache=disabled ./ftbench/bench.exe ./bin/ftsched_cli.exe 1>&2
exec ./_build/default/ftbench/bench.exe --cli ./_build/default/bin/ftsched_cli.exe "$@"
