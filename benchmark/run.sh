#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload lattice-12cube --seed 3 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, the go
# command's telemetry counters, binary, temp dirs for tsimd's data dir
# and traces) stays under .bench_build at the repository root. No
# network is used.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C benchmark build -o "$build/tsbench" .
exec "$build/tsbench" "$@"
