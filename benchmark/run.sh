#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout:
# binary, Go build cache and module cache all live there) and runs it with
# the caller's arguments, from the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOFLAGS=-mod=mod \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$here" -o "$out/crossbow-benchmark" .
cd "$root"
exec "$out/crossbow-benchmark" "$@"
