#!/bin/bash
# The driver's entry point (BENCHMARK.json "command"): builds the benchmark
# from its own module and runs it with the arguments given. Everything the
# build and the run write stays inside the checkout, under bench/out (which
# .gitignore names): the go tool's build cache, work directory and counter
# files too, so the first run in a fresh checkout compiles the standard
# library once.
set -e
here="$(cd "$(dirname "$0")" && pwd)"
out="$here/out"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/bench" .
exec "$out/bench" "$@"
