#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it from the
# checkout's root; all arguments pass through. Build outputs and the Go
# build cache stay inside the checkout, under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
