#!/usr/bin/env bash
# Builds the benchmark and memnetd from source, then runs the benchmark.
# Run from the repository root; arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload sweep-light --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --regen
#
# Everything it builds or writes stays under .bench_build/ in the
# repository: the Go build cache, the binaries, scratch directories and the
# traced runs' artifacts.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home"

# Keep the toolchain's caches and configuration inside the checkout, and
# keep it offline: the module has no dependencies to fetch.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/memnetd" memnet/cmd/memnetd)
exec "$out/bin/perfbench" "$@"
