#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from the checkout it was started in, then run it with the driver's
# arguments. Everything the build writes — Go's build cache included —
# stays inside the checkout, under .bench_build/.
#
#   bash benchmark/run.sh --workload kv-point-read --seed 1 --seconds 21 --trace 0
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: $root has no go.mod: the benchmark builds against the repository's packages and needs a full checkout" >&2
	exit 2
fi

build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
mkdir -p "$build"
go build -o "$build/mvrlu-benchmark" ./benchmark
exec "$build/mvrlu-benchmark" "$@"
