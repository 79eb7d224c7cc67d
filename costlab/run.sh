#!/usr/bin/env bash
# Builds the cost-lab benchmark from this checkout and runs it, e.g.
#
#   bash costlab/run.sh --workload kv-hot --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build at the checkout root. The benchmark is its own module
# (costlab/go.mod) that builds against the checkout's source.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$here" build -o "$out/costlab" .
exec "$out/costlab" "$@"
