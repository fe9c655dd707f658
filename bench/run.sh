#!/usr/bin/env bash
# Builds vrperf from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload hpcdb-techniques --seed 1 --seconds 15 --trace 0
#
# Run it from the root of a checkout. Everything the build writes (Go's
# build cache, the binary, campaign journals) goes under .bench_build in
# that root, so nothing outside the checkout is read or written besides
# the Go toolchain itself. Without the simulator source beside bench/ the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

(cd "$root/bench" && go build -o "$out/vrperf" ./vrperf)
# vrperf runs as a child, not through exec: a process keeps its children's
# resource totals across exec, and vrperf reads its own (peak memory and
# CPU time of its workers), which must not include the build's.
status=0
"$out/vrperf" "$@" || status=$?
exit "$status"
