#!/usr/bin/env bash
# Builds the simulator benchmark from this checkout and runs it:
#
#   bash simbench/run.sh --workload leafspine-sweep --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, spans, digest ledger) stays under
# .bench_build/ in the working directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f simbench/go.mod ]]; then
	echo "simbench: run from the root of a pmsb checkout (go.mod and internal/ not found)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd simbench && go build -o "$out/bin/simbench" .)
exec "$out/bin/simbench" "$@"
