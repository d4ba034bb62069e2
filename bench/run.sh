#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout: bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The binary and the Go build cache live under .bench_build/ in the
# checkout, so the first run compiles everything (about a minute) and no
# run writes outside the checkout. Without the rest of the repository
# beside it the build fails and nothing is printed.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/mdm-bench" .)
exec "$build/mdm-bench" "$@"
