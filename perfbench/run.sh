#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and scratch files all stay under
# .bench_build in the current directory. Without the module's sources next
# to perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS= GOENV=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" -work "$out/perfbench-work" "$@"
