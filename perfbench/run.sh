#!/usr/bin/env bash
# Builds the benchmark and innsearchd from this checkout's sources and runs
# the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload arb64 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write goes under .bench_build in the
# current directory: the Go build cache, the binaries, the generated CSV
# datasets, the daemon's log and trace.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep the toolchain's caches and settings inside the checkout, and never
# reach for the network: the module has no dependencies to download.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
go build -o "$build/innsearchd" ./cmd/innsearchd
exec "$build/perfbench" --build "$build" --bench "$root/BENCHMARK.json" "$@"
