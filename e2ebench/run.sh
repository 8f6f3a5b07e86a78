#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from
# the repository root:
#
#   bash e2ebench/run.sh --workload iv-cotunnel --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# binary, temporary checkpoint directories, traces and result files.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
work="$build/e2ebench"
mkdir -p "$work/home"

export GOCACHE="$work/gocache" GOPATH="$work/gopath" HOME="$work/home" \
	XDG_CONFIG_HOME="$work/home/.config" XDG_CACHE_HOME="$work/home/.cache" \
	GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS= GOWORK=off GOPROXY=off

(cd "$root/e2ebench" && go build -o "$work/bin/e2ebench" .)
exec "$work/bin/e2ebench" -root "$root" -out "$work/run" "$@"
