#!/usr/bin/env bash
# Builds the perfbench binary from this checkout and runs it. Run it from the
# repository root; every argument is passed through:
#
#   bash perfbench/run.sh --workload detect --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and the spans of a traced
# run stay under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout. Outside a full checkout (no ../go.mod next to perfbench/) the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$PWD
case "${CARGO_TARGET_DIR:-.bench_build}" in
/*) out=$CARGO_TARGET_DIR ;;
*) out=$root/${CARGO_TARGET_DIR:-.bench_build} ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --trace-out "$out/perfbench-trace.jsonl" "$@"
