#!/usr/bin/env bash
# Builds skyrand and the benchmark from the checkout's sources, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload epoch --seed 1 --seconds 16 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, daemon state, logs,
# CPU profiles and span files.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/skyrand ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/skyrand and perfbench/ must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/home" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	XDG_CACHE_HOME="$out/home/.cache" GOENV=off GOPROXY=off GOTOOLCHAIN=local \
	GOWORK=off GOFLAGS=

go build -o "$out/skyrand" ./cmd/skyrand
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -skyrand "$out/skyrand" -workdir "$out/run" -go "$(command -v go)" "$@"
