#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload map-paper --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact (binary, Go build
# cache, span files) stays under .bench_build/ in the checkout. The
# benchmark module resolves the spmap module at "..", so the build fails,
# and the script exits non-zero, when the repository sources are absent.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
