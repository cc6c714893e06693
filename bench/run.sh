#!/usr/bin/env bash
# Builds the benchmark into the checkout's .bench_build and runs it from
# the checkout root. Everything the Go tool writes (binary, build cache,
# temporary files, module cache, its own settings and telemetry counters)
# stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$here" -o "$build/dynbench" .
cd "$root"
exec "$build/dynbench" "$@"
