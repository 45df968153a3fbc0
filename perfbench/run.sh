#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ of the current
# directory (the repository root) and runs it with the given arguments.
# The Go build cache lives there too, so a run reads and writes nothing
# outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
