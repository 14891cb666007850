#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash e2ebench/run.sh --workload kv_inproc --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and traced runs' spans stay under
# .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
# Keep the go command's caches and settings inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOFLAGS= GOTOOLCHAIN=local
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
