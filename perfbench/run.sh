#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root:
#
#   bash perfbench/run.sh --workload serve-herd --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --self-test
#
# The build cache, the binary, the run's journals and its result files all
# stay under the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" --out "$build" "$@"
