#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout (build cache, the compiler's temporary files and the
# binary under .bench_build, nothing outside the checkout is written) and
# runs it with the given arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/oopp-bench" .)
exec "$build/oopp-bench" "$@"
