#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from the
# repository root, passing every argument through:
#
#   bash benchmark/run.sh --workload submit-local --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh compare A.jsonl B.jsonl
#
# Build outputs, the Go build cache and span files stay under .bench_build/,
# so a run reads and writes nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/vdce-benchmark" .)
cd "$root"
exec "$build/vdce-benchmark" "$@"
