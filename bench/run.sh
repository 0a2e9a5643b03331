#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload keyed-2k --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Every build artifact and cache lands in
# .bench_build/ there, so the run reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go -C "$root/bench" build -o "$out/pnmbench" .
exec "$out/pnmbench" "$@"
