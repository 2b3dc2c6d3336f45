#!/bin/sh
# Driver entry point: build the benchmark inside the checkout, then run it.
# Arguments are passed through:
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything Go writes while building (build cache, temp files) and everything
# the benchmark writes (results, traces, spill files) stays in the checkout.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/cadb-benchmark" .)
exec "$build/cadb-benchmark" -out "$here/out" "$@"
