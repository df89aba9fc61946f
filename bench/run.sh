#!/usr/bin/env bash
# Builds the SVM benchmark from source and runs it.  Run from the root of a
# checkout of the repository; every build product, the Go build cache
# included, stays under .bench_build/ there.
#
#   bash bench/run.sh --workload <syscall|proc|apps|net|all> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/run.sh compare <dirA> <dirB>
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOENV=off
(cd "$root/bench" && go build -o "$out/svabench" .)
exec "$out/svabench" "$@"
