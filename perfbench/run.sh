#!/usr/bin/env bash
# Builds the streamrel benchmark from the source tree it sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload dashboards --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# archive workload's data directories stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=

# The build stamps the git revision when the tree is a git checkout; a
# checkout whose git status cannot be read builds without the stamp.
cd "$root/perfbench"
go build -o "$build/perfbench" . >&2 || go build -buildvcs=false -o "$build/perfbench" . >&2
cd "$root"
exec "$build/perfbench" -workdir "$build" "$@"
