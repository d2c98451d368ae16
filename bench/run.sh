#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the root of a checkout. Everything the build writes — compiler
# cache, scratch directory and the go command's telemetry counters included —
# stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"

(cd "$root/bench" && go build -o "$build/parmac-bench" .)
exec "$build/parmac-bench" "$@"
