#!/usr/bin/env bash
# Builds the whole-scan benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash scanbench/run.sh --workload send-null --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own config
# and telemetry) stays under .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/scanbench" && go build -o "$out/scanbench" .)
cd "$root"
exec "$out/scanbench" "$@"
