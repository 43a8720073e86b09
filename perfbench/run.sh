#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 10 --trace 0
# Build products, the Go build cache and the go command's own config and
# telemetry files live under .bench_build at the repository root, so a run
# writes only inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
