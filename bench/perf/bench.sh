#!/bin/sh
# Builds the benchmark from source and runs it; arguments go to main.exe
# (see main.ml). Run from anywhere inside a checkout of the repository.
set -e
cd "$(dirname "$0")/../.."
# keep every build product inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/perf/main.exe
exec ./_build/default/bench/perf/main.exe "$@"
