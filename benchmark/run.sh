#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): builds the benchmark
# from the checkout it is run in and executes it with the arguments given.
# People can just `go run ./benchmark`. Everything the Go toolchain writes —
# build cache, temporary files, the binary — stays under .bench_build in the
# checkout, and nothing is fetched.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/gir-benchmark" ./benchmark
exec "$build/gir-benchmark" "$@"
