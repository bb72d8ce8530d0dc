#!/usr/bin/env bash
# Builds the benchmark inside the checkout (Go's build cache included,
# so nothing is written outside it) and runs it from the repository
# root. Arguments go to the benchmark unchanged.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p "$root/.bench_build/bin"
go -C "$root/benchmark" build -o "$root/.bench_build/bin/lce-benchmark" .
cd "$root"
exec "$root/.bench_build/bin/lce-benchmark" "$@"
