#!/usr/bin/env bash
# Builds wfbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash cmd/wfbench/run.sh --workload scale-800 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, the binary and, with
# --trace 1, the trace file.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # where the go command keeps telemetry
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd "$root/cmd/wfbench" && go build -trimpath -o "$out/wfbench" .)
exec "$out/wfbench" -out "$out" "$@"
