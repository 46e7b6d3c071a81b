#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it runs in, then
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig7a-local --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build): the Go build cache, the binary and the daemons'
# scratch result caches. No module is fetched; perfbench depends only on
# the repository's own packages.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/config" "$build/work"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$src" && go build -o "$build/perfbench" .)

exec "$build/perfbench" --workdir "$build/work" "$@"
