#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash benchmark/run.sh --workload kv-write --seed 1 --seconds 40 --trace 0
#
# The build cache, the binary and every file a run writes (sockets,
# checkpoint images, span files) stay under .bench_build in the current
# directory. The Go build's own output goes to standard error, so the
# benchmark's result stays the last line of standard output.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
(cd "$src" && go build -o "$out/benchmark" .) >&2
exec "$out/benchmark" --dir .bench_build "$@"
