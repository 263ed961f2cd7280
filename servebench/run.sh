#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash servebench/run.sh --workload hot-repeat --seed 1 --seconds 10 --trace 0
#
# Every build output (binary, Go build cache, span files) stays under
# .bench_build/ in the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=mod
export CGO_ENABLED=0

(cd "$root/servebench" && go build -o "$out/servebench" .)
cd "$root"
exec "$out/servebench" "$@"
