#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source
# into the checkout (.bench_build, which .gitignore names) and run it.
# Run from the repository root; arguments go to the program unchanged:
#
#   bash bench/run.sh --workload plan_cold --seed 1 --seconds 20 --trace 0
#
# `go run ./bench ...` does the same with the user-wide build cache.
set -euo pipefail
root=$PWD
if [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: no go.mod in $root: run from the root of a full checkout" >&2
	exit 1
fi
# Everything the toolchain writes stays inside the checkout: build cache,
# temporary files and (under XDG_CONFIG_HOME) its telemetry counters.
export GOCACHE="$root/.bench_build/go-cache" GOTMPDIR="$root/.bench_build/tmp" \
	XDG_CONFIG_HOME="$root/.bench_build/config" GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"
go build -o "$root/.bench_build/bench" ./bench
exec "$root/.bench_build/bench" "$@"
