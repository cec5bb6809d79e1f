#!/usr/bin/env bash
# Builds the service benchmark from this checkout and runs it with the
# given arguments, from the repository root. Everything the build and the
# run write stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$root/servicebench" && go build -o "$out/servicebench" .)
cd "$root"
exec "$out/servicebench" "$@"
