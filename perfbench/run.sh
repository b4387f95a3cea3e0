#!/usr/bin/env bash
# Builds the simulator cost benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload conv-churn --seed 42 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, telemetry, the binary)
# stays under $CARGO_TARGET_DIR (default .bench_build) in this checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
