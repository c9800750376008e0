#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the Go toolchain and the program write (build cache, binary,
# temp files, the warm tier's spill directory) stays under .bench_build/ in
# the checkout. Fails without output where the mqo module is absent.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -C benchmark -o "$build/mqobench" .
exec "$build/mqobench" "$@"
