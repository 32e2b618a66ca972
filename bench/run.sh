#!/usr/bin/env bash
# Builds the benchmark harness and runs it; run from the repository
# root, with the harness's flags, e.g.
#
#   bash bench/run.sh --workload d16 --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files all stay under
# .bench_build/ in the repository.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
    echo "run.sh: run from the repository root" >&2
    exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
