#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash lockbench/run.sh --workload token-handoff --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs and the Go build cache go
# to .bench_build/ there (or $CARGO_TARGET_DIR when set), so the run
# reads and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/lockbench" . >&2
exec "$out/lockbench" "$@"
