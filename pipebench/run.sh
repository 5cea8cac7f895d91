#!/usr/bin/env bash
# Builds the pipeline benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repository root:
#
#   bash pipebench/run.sh --workload tpch_batch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, temporary files, the binary, trace spans). The
# toolchain is pinned to the local one and module downloads are disabled: the
# benchmark depends only on the repository's own module.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/pipebench/go.mod" ]]; then
	echo "pipebench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$root/pipebench" && go build -o "$out/pipebench" .)
exec "$out/pipebench" "$@"
