#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through:
#
#   bash perfbench/run.sh --workload chat-http --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, temporary files and
# the binary stay under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp" "$build/gocache" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
