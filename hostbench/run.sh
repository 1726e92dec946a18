#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash hostbench/run.sh --workload zoo-fk --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (binary, Go build cache, temporary
# files, span logs) goes to .bench_build/ under the working directory, or to
# $CARGO_TARGET_DIR if set.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C hostbench build -o "$out/hostbench" .
exec "$out/hostbench" -out-dir "$out" "$@"
