#!/bin/sh
# Builds easyio-benchmark from source and runs it with the given
# arguments. Run it from the root of a checkout:
#
#	sh cmd/easyio-benchmark/run.sh --workload serve-qos --seed 42 --seconds 10 --trace 0
#
# The binary, the Go build cache and the toolchain's temporary files all
# live under .bench_build in the checkout, so a run writes nowhere else.
# Outside a full checkout (no go.mod two directories up) the build fails
# and the script exits non-zero without printing a result.
set -eu
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off \
	go build -C cmd/easyio-benchmark -o "$out/easyio-benchmark" .
exec "$out/easyio-benchmark" "$@"
