#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cdpf-cells --seed 1 --seconds 20 --trace 0
#
# The Go build cache and module path live under .bench_build/ so a run reads
# and writes only inside the checkout; nothing is fetched.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
