#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout; the module has no dependencies, so nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
rm -f "$out/perfbench"
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
