#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the Go toolchain writes (build cache, temporary
# files, the binary) stays under .bench_build/ in the checkout root, and
# nothing is fetched from the network.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -C benchmark -o "$build/elga-benchmark" .
exec "$build/elga-benchmark" "$@"
