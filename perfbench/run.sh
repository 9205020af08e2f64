#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, temporary
# build directories, telemetry) goes under .bench_build in the checkout, so
# the run touches nothing else.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export CGO_ENABLED=0

go -C "$root/perfbench" build -trimpath -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
