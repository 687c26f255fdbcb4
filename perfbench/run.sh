#!/usr/bin/env bash
# Builds jarvisd and the benchmark runner from this checkout, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload home-day --seed 1 --seconds 10 --trace 0
#
# Builds, daemon state and span files all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" .
go build -C "$root" -o "$out/jarvisd" ./cmd/jarvisd
exec "$out/perfbench" -jarvisd "$out/jarvisd" -workdir "$out/work" "$@"
