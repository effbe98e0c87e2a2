#!/usr/bin/env bash
# Builds the harness from source and runs it. Everything the build and
# the run write stays inside the checkout: Go's build cache and scratch
# space go to .bench_build/, fixtures and traces to bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/cnpbench" .)
exec "$build/cnpbench" -out "$here/out" "$@"
