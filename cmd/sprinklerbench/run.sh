#!/usr/bin/env bash
# Builds sprinklerbench from source and runs it with the given flags, e.g.
#
#   bash cmd/sprinklerbench/run.sh --workload daemon --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (the binary,
# the Go build cache, temporary files) stays under .bench_build/ there, and
# the toolchain never reaches the network. Build output goes to standard
# error, so the benchmark's result stays the last line of standard output.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/sprinklerbench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C cmd/sprinklerbench build -o "$out/sprinklerbench" . >&2
exec "$out/sprinklerbench" "$@"
