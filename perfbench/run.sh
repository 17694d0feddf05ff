#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build artifact (binary, Go build cache, toolchain config) stays under
# .bench_build/ in the checkout. The build fails, and so does this script,
# when the repository sources next to perfbench/ are missing.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=

tree=$(find . -path ./.bench_build -prune -o -path ./.git -prune -o \
	\( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
go build -C perfbench -ldflags "-X main.sourceTree=$tree" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
