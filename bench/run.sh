#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh [-workload W] [-seed N] [-trials K] [-seconds S] [-scale F] [-trace 0|1] [-out DIR]
#   bash bench/run.sh -compare base.json new.json
#
# It runs from the root of the checkout holding this script. The Go build
# cache, temporary and configuration files all go under .bench_build, so a
# run writes nothing outside the checkout; outputs go to bench-out.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/modcache" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$build/firefly-bench" .
exec "$build/firefly-bench" "$@"
