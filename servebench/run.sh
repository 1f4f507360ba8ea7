#!/usr/bin/env bash
# Builds the serving-path benchmark under .bench_build and runs it with
# the given arguments. Run from the repository root:
#
#   bash servebench/run.sh --workload fleet --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build: the
# Go build cache, the toolchain's config and telemetry (XDG_CONFIG_HOME)
# and the benchmark's temporary WAL directories.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" "$@"
