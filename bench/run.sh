#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload tlm_long --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare PARENT_DIR CHANGE_DIR
#
# Everything the build writes (binary, Go build cache, temporary files,
# the go command's configuration and telemetry) stays in .bench_build
# under the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
