#!/usr/bin/env bash
# Repository benchmark entry point. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload build|serve-hot|serve-cold|all \
#       --seed N --seconds S --trace 0|1
#
# Builds eyeballpipe, eyeballserve and the harness from this checkout
# into $CARGO_TARGET_DIR (default .bench_build), with the Go build cache
# and temporary files kept inside that directory, then runs the harness.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/eyeballpipe || ! -d cmd/eyeballserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an eyeballas checkout" >&2
	exit 2
fi
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out="$root/$out"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOMODCACHE="$out/gomod" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/" ./cmd/eyeballpipe ./cmd/eyeballserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -out "$out" "$@"
