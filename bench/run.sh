#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (go caches included, so nothing is written outside it) and runs
# it with the arguments given. BENCHMARK.json names this script as the
# benchmark's one command.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
env GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off XDG_CONFIG_HOME="$build/config" \
	go build -C "$here" -buildvcs=false -ldflags "-X main.gitCommit=$commit" -o "$build/nocbench" .
exec "$build/nocbench" "$@"
