#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build writes stays inside the checkout: the binary,
# Go's build cache and its (unused) module cache live under .bench_build/.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
