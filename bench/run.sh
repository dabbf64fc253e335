#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash bench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache, build temporaries, toolchain
# telemetry, the binary and all results stay under .bench_build/ in the
# repository, so a run writes nothing outside the checkout. Outside a full checkout the
# build fails (the bench module replaces cpplookup with ../), and so
# does this script, without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"

GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= \
	go -C bench build -o "$build/cppbench" .

exec "$build/cppbench" "$@"
