#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; all arguments pass through to the benchmark binary:
#
#   bash perfbench/run.sh --workload tier-cascade --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the go command's own state
# (GOPATH, the config directory it keeps telemetry in) stay under
# .bench_build/ in the current directory, so the benchmark writes nothing
# outside it.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
