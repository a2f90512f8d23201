#!/usr/bin/env bash
# Build the benchmark program (perf.exe) from the source checkout this
# script sits in, then run it with the given arguments (see README.md in
# this directory).  Build output goes to the checkout's _build; the
# shared dune cache is off so nothing is written outside the checkout.
set -eu
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: $(pwd) is not a full source checkout (no dune-project or lib/)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
