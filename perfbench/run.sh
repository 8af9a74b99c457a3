#!/usr/bin/env bash
# Builds the routesync end-to-end benchmark from the checkout this script
# sits in and runs it from the checkout's root. The build, the Go caches,
# the go command's config and telemetry, and temporary files all stay
# under .bench_build in the checkout.
#
#   bash perfbench/run.sh --workload bgp_mrai --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS="-mod=readonly -buildvcs=false" GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
go -C "$root/perfbench" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
