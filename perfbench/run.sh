#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload solve-daily --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write lands under .bench_build/ in
# the checkout: the Go build cache, the binary, run stores, traces and
# result records.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of the repository" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"

# Fall back to Go's default install location when go is not on PATH.
command -v go >/dev/null || PATH="${GOROOT:-/usr/local/go}/bin:$PATH"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOWORK=off
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
