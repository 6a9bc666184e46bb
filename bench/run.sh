#!/usr/bin/env bash
# Builds the system benchmark from this checkout's sources and runs it,
# passing every argument through:
#
#   bash bench/run.sh --workload rx-mcs0-1x4 --seed 1 --seconds 20 --trace 0
#
# The build cache and the binary stay in .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
