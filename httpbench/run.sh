#!/usr/bin/env bash
# Builds the HTTP-surface benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash httpbench/run.sh --workload crowd --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache and tool state, binary,
# WAL files, span dumps) stays under .bench_build at the repository root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C httpbench build -o "$build/httpbench" .
exec "$build/httpbench" --work "$build" "$@"
