#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash perfbench/run.sh --workload study-default --seed 1 --seconds 36 --trace 0
# Run from the repository root. The binary, the Go build cache and the
# traces go under .bench_build/ there.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-buildvcs=false
go build -C perfbench -o "$out/perfbench" .
if [ -d .git ]; then
	PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi
exec "$out/perfbench" "$@"
