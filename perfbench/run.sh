#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload stocks --seed 1 --seconds 14 --trace 0
#
# The binary, the Go build cache and the go command's own config and
# telemetry files live under .bench_build/ at the root of the checkout, so a
# run writes nothing outside it. The module has no dependencies to fetch.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
