#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it with the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload table2-mini --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (Go build cache, binary, span dumps) stays
# under .bench_build/.
set -euo pipefail

root=$(pwd)
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

go -C "${root}/perfbench" build -o "${out}/perfbench" .
exec "${out}/perfbench" -spans-dir "${out}" "$@"
