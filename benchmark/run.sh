#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example: bash benchmark/run.sh --workload full-detect --seed 1
# Run it from the repository root. Everything the build writes (the Go
# build cache, temporary files and the binary) stays in .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/cache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/benchmark" && go build -o "$out/literace-bench" .)
exec "$out/literace-bench" "$@"
