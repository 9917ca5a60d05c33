#!/usr/bin/env bash
# Bench smoke: run the root package's benchmarks selected by -bench for
# one iteration each, and fail when the regex selected none (go test
# passes silently on a -bench regex that matches nothing). Extra flags
# go straight to go test. Run from the repo root:
#
#   bash scripts/bench_smoke.sh -bench BenchmarkSolverStepLarge -benchmem
#   bash scripts/bench_smoke.sh -race -bench 'BenchmarkScenarioBackends/cavity'
set -euo pipefail

log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test -run XXX -benchtime=1x "$@" . | tee "$log"
grep -q '^Benchmark' "$log" || { echo "bench smoke: no benchmark matched: $*" >&2; exit 1; }
