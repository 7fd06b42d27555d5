#!/usr/bin/env bash
# Builds dcsatd and the benchmark from this checkout into .bench_build,
# then runs one workload. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload fig6 --seed 1 --seconds 25 --trace 0
#
# Every file the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/dcsatd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a blockchaindb checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/dcsatd" ./cmd/dcsatd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --dcsatd "$out/bin/dcsatd" "$@"
