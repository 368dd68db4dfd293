#!/bin/sh
# Builds the benchmark into .bench_build/ at the root of the checkout
# and runs it with the given arguments. Everything go writes — build
# cache, temporary files, GOPATH — goes there too, so nothing is read
# from or written to the user's home, and the build does not depend on
# a go.work or a toolchain download.
set -eu
dir=$(dirname "$0")
out="$(cd "$dir/.." && pwd)/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOWORK=off GOTOOLCHAIN=local \
	go build -C "$dir" -o "$out/bench" .
exec "$out/bench" "$@"
