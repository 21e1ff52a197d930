#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; arguments pass
# through (see bench/README.md). Run it from the repository root. Every
# build output, cache and scratch file stays under .bench_build (or
# $CARGO_TARGET_DIR when set) inside the checkout.
set -euo pipefail
out="$(pwd)/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$out/bin/lmbench" .
exec "$out/bin/lmbench" "$@"
