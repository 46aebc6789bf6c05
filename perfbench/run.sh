#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Every build product, cache and scratch file stays under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory, which
# must be the repository root.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS="-mod=mod -buildvcs=false"
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
