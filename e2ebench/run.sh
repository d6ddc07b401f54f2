#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
#
#   bash e2ebench/run.sh --workload raptor-lossy --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Everything the build writes (binary,
# Go build cache, temporary files) stays under .bench_build/ in the
# checkout. The build fails, and the script exits non-zero without
# printing a result, when the fountain sources are not next to it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOFLAGS=
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
