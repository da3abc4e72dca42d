#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-qs-24h --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write (Go build cache, binary,
# checkpoint scratch files) stays under .bench_build/ in the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -tmp "$build/tmp" "$@"
