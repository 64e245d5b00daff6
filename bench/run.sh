#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every flag is passed through, e.g.
#
#   bash bench/run.sh --workload cached-mix --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -all -seed 1
#
# The Go build cache, its temporary files, the go command's config
# directory and the binary live in .bench_build/ at the root, so building
# and running write nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" "$@"
