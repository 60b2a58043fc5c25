#!/usr/bin/env bash
# Builds the benchmark runner from this checkout's sources and runs it
# from the repository root with the given arguments (see bench/README.md).
# Build outputs, the Go build cache, temporary files and the go
# command's own telemetry stay in .bench_build/ of the checkout; the
# build never fetches anything.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
	TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
