#!/usr/bin/env bash
# Builds the ledger from source and runs it with the arguments given:
#   bash bench/ledger/run.sh --workload sim_flow --seed 1 --seconds 24 --trace 0
# Everything the build and the run write (Go's build cache, the binary,
# journals, the Chrome trace) stays under .bench_build at the root of the
# checkout. Outside a full checkout the build fails and so does this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(cd "$here/../.." && pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/ledger" .)
exec "$out/ledger" "$@"
