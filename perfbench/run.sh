#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload lfr-batch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL data
# directories, trace files) stays under .bench_build/ at the root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/xdg"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/xdg" XDG_CACHE_HOME="$out/xdg"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
