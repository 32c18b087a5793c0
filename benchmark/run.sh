#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there. Everything the build and the run write —
# Go's build cache, temporary files, index directories — stays under
# .bench_build/, so the benchmark reads and writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config" "$build/bin" "$build/work"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
  XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$here" && go build -o "$build/bin/xrank-benchmark" .)
exec "$build/bin/xrank-benchmark" -work "$build/work" "$@"
