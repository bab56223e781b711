#!/usr/bin/env bash
# Builds the benchmark from the checkout it lives in and runs it.
#
#   bench/run.sh --workload serve-miss --seed 1 --seconds 25 --trace 0   timed run, end-to-end metrics
#   bench/run.sh --workload serve-miss --seed 1 --trace 1                traced run, per-layer metrics
#   bench/run.sh repeat 10                                                noise protocol against BENCHMARK.json
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, the binary and the trace files.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: $root is not a hetsched checkout (no go.mod, no internal/): nothing to benchmark" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/hetbench" ./bench

if [ "${1:-}" = repeat ]; then
	exec "$build/hetbench" -repeat "${2:?usage: bench/run.sh repeat N}"
fi
exec "$build/hetbench" "$@"
