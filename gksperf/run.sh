#!/usr/bin/env bash
# Builds gks, gksd and the gksperf benchmark from this checkout into
# .bench_build/, then runs the benchmark with the given arguments, e.g.
#
#   bash gksperf/run.sh --workload bib-lookup --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Everything it writes stays
# under .bench_build/, the Go build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/bin/gks" ./cmd/gks
go build -o "$out/bin/gksd" ./cmd/gksd
(cd gksperf && go build -o "$out/bin/gksperf" .)
exec "$out/bin/gksperf" --root "$root" "$@"
