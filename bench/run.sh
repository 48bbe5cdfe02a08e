#!/usr/bin/env bash
# Build the benchmark from source inside the checkout and run it with the
# given arguments. Everything the build leaves behind (Go's build cache
# and the binary) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod next to bench/: the simulator's source is missing" >&2
	exit 2
fi
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
