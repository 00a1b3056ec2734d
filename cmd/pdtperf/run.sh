#!/usr/bin/env bash
# Builds cmd/pdtperf from the source tree around it and runs it with the
# given arguments, from the repository root:
#
#   bash cmd/pdtperf/run.sh --workload htap-scan --seed 7 --seconds 10 --trace 0
#
# The build cache, the binary and the benchmark's store directories all stay
# inside the checkout (.bench_build/ and .bench_out/).
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/pdtperf" .)
cd "$root"
exec "$build/pdtperf" "$@"
