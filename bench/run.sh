#!/usr/bin/env bash
# bench/run.sh — build nowperf from this checkout and run it.
#
# Usage (from the repository root):
#   bash bench/run.sh --workload xfs-readmiss --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1 -trace 1          # every workload, one child each
#
# Everything the build and the run write stays inside the checkout:
# the Go build cache, temporary files and the binary go to .bench_build/
# (or $CARGO_TARGET_DIR when set), results and traces to bench/out/.
# The build is offline and uses only the local toolchain.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local PPROF_TMPDIR="$build/tmp"

(cd "$root/bench" && go build -o "$build/nowperf" ./nowperf)
exec "$build/nowperf" -out "$root/bench/out" "$@"
