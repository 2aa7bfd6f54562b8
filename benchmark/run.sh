#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash benchmark/run.sh --workload kernel-sweep --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f benchmark/go.mod ]]; then
	echo "benchmark: run from the repository root (go.mod, internal/ and benchmark/ needed)" >&2
	exit 2
fi

out=.bench_build
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/gotmp" GOPATH="$PWD/$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off CGO_ENABLED=0

(cd benchmark && go build -o "../$out/benchmark" .)
exec "$out/benchmark" "$@"
