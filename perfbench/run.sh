#!/usr/bin/env bash
# Builds the serve-path benchmark and the netembedd daemon from the tree
# it sits in, then runs one benchmark workload. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload hot-repeat --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the current directory (Go build cache included), so the run touches
# nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/netembedd" ./cmd/netembedd

exec "$out/bin/perfbench" -root "$root" "$@"
