#!/usr/bin/env bash
# Re-runs the test suite at one GOMAXPROCS setting, so the number of
# processors the scheduler may use is an explicit test dimension: several
# interleaving defects in this repository only ever showed with two or
# more Ps running Go code.
#
# Usage:
#     ./scripts/test-matrix.sh 1
#     ./scripts/test-matrix.sh 4
#
# It runs tier-1 (go build + go test over the whole module), then the
# concurrency-heavy packages three times each under the race detector.
# Nothing is skipped or excluded; the exit status is the first failure's.
set -euo pipefail

if [[ $# -ne 1 || ! "$1" =~ ^[1-9][0-9]*$ ]]; then
  echo "usage: $0 <gomaxprocs>" >&2
  exit 2
fi
export GOMAXPROCS="$1"
cd "$(dirname "$0")/.."

echo "== GOMAXPROCS=$GOMAXPROCS: tier-1"
go build ./...
go test ./...

echo "== GOMAXPROCS=$GOMAXPROCS: race x3 (core, buffer, torture)"
go test -race -count=3 ./internal/core ./internal/buffer ./internal/torture
