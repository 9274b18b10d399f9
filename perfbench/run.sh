#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig3-list --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays in .bench_build/ at the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# Outside a VCS checkout, or where the VCS tool cannot read it, build
# without the revision stamp (the manifest then says "unknown").
go -C perfbench build -o "$out/perfbench.new" . 2>/dev/null ||
	go -C perfbench build -buildvcs=false -o "$out/perfbench.new" .
mv "$out/perfbench.new" "$out/perfbench"
exec "$out/perfbench" "$@"
