#!/usr/bin/env bash
# Builds the benchmark from source into benchmark/out/ (git-ignored) and
# runs it with the given flags. Everything the build writes — binary, Go
# build cache, trace — stays under benchmark/out/, inside the checkout.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOPATH="$PWD/out/gopath" GOTOOLCHAIN=local
go build -o out/jetbench .
exec out/jetbench "$@"
