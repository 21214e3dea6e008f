#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the checkout root:
#   bash perfbench/run.sh --workload retro_dense --seed 1 --seconds 25 --trace 0
# Everything it writes (Go build cache, binary, Pagelog files, traces)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no rql module at $root (run from the checkout root)" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
