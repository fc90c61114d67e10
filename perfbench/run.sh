#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, e.g.
#
#   bash perfbench/run.sh --workload eval-serial --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under ./.bench_build: the
# Go build cache, the binary, and the benchmark's scratch files. The
# benchmark is its own Go module (perfbench/go.mod) that uses the
# repository's module from the parent directory, so the build fails —
# and the script exits non-zero — when that module is missing.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
