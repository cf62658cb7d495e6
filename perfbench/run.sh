#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# its flags on:
#
#   bash perfbench/run.sh --workload fleet-4k --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, temporary files)
# stays under .bench_build/ at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/scenario" ]]; then
	echo "perfbench: $root does not hold the simulator's sources (go.mod, internal/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
