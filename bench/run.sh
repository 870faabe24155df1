#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache,
# binary, write-ahead-log scratch, span files) stays under .bench_build
# at the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOTELEMETRY=off
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
