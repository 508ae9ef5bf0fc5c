#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Everything the build and the run
# write stays under .bench_build in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
