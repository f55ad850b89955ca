#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload fattree-solve --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/go-tmp"

export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/go-tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/perfbench-spans" "$@"
