#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#
#   bash perfbench/run.sh --workload bulk-lubm|serve-read|serve-mixed \
#       --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The Go build cache, the binary and
# the benchmark's scratch files all stay under .bench_build/ there.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]] || ! grep -q '^module inferray$' go.mod; then
	echo "perfbench: run from the root of the inferray source tree" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
