#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout, then runs it.
#
#   bash _perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
#   bash _perfbench/run.sh compare <results-dir-A> <results-dir-B>
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there: the Go build cache, the binary, temporary
# inputs, and one result file per run in .bench_build/results/.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$here" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
