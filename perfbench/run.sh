#!/usr/bin/env bash
# Builds coldd and the benchmark from this checkout's sources into
# .bench_build/ (Go caches included, so nothing is written outside the
# checkout), then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload paper-n30 --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(
	cd "$here"
	go build -o "$out/perfbench" .
	go build -o "$out/coldd" github.com/networksynth/cold/cmd/coldd
) >&2

exec "$out/perfbench" -coldd "$out/coldd" -workdir "$out/run" "$@"
