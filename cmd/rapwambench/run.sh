#!/usr/bin/env bash
# The acceptance driver's entry point (BENCHMARK.json "command"): builds
# the harness from the checkout and runs it, keeping every build
# product — Go's build cache and temporary files included — under
# .bench_build/ in the checkout, so a run reads and writes nothing
# outside it. By hand, `go run ./cmd/rapwambench` does the same with
# your usual build cache.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
cd "$root"
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/gotmp" GOPATH="$root/.bench_build/gopath"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
mkdir -p "$GOTMPDIR" "$root/.bench_build/bin"
go build -o .bench_build/bin/rapwambench ./cmd/rapwambench
exec .bench_build/bin/rapwambench "$@"
