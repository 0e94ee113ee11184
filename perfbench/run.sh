#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on.
# Run it from the root of the repository; everything it builds or writes
# stays under .bench_build there.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
