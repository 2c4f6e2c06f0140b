#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, for example:
#
#   bash bench/run.sh --workload campaign-code --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and each
# run's scratch files all stay under .bench_build/ there.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C bench build -o "$build/bench" .
# Two cores of campaign work, whatever the host has.
exec env GOMAXPROCS=2 "$build/bench" "$@"
