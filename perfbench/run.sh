#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload edge-b1 --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span files stay under .bench_build
# in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOTELEMETRY=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
