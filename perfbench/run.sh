#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload search --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare <result-dir-A> <result-dir-B>
#
# Build output, the Go build cache and trace files stay under
# .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"
