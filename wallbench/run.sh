#!/usr/bin/env bash
# Builds the wall-clock benchmark from the surrounding checkout and runs it,
# passing every argument through:
#
#   bash wallbench/run.sh --workload cached-tpcw --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the go command's own config and
# telemetry files stay under .bench_build/ in the checkout, and the go
# command never reaches the network. The build needs the bpwrapper module
# one directory up; without it the script fails before printing anything.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/wallbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/wallbench" && go build -o "$out/wallbench" .) >&2
cd "$root"
exec "$out/wallbench" "$@"
