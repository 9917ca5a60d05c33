#!/usr/bin/env bash
# CLI smoke: drives the flag binding of jetsim, platforms and figures
# and the job decoding of jetsimd end to end (cmd/ has no unit tests).
# Run from the repo root.
set -euo pipefail

# Flags reach the run description: an explicit 2x1 rank grid, exact halos.
go run ./cmd/jetsim -nx 64 -nr 24 -steps 4 -backend mp2d -px 2 -pr 1 -fresh

# A contradictory flag pair is rejected by Config.Canonical.
if go run ./cmd/jetsim -nx 64 -nr 24 -steps 4 -fresh -halo-depth 2; then
	echo "cli smoke: -fresh -halo-depth 2 was accepted" >&2
	exit 1
fi

# Retired spellings are rejected, not silently dropped: the flag by
# jetsim's flag set, the job field by jetsimd's decoder. The backend
# name alone selects the communication version (mp2d:v6, hybrid:v7).
for retired in '-time-slices 4' '-version 6'; do
	# shellcheck disable=SC2086 # the flag and its value are two words
	if go run ./cmd/jetsim -nx 64 -nr 24 -steps 4 $retired; then
		echo "cli smoke: jetsim accepted $retired" >&2
		exit 1
	fi
done
for spelled in '"time_slices":4' '"version":6'; do
	field=${spelled%%:*}
	if err=$(echo "{$spelled,\"nx\":64,\"nr\":24,\"steps\":4}" | go run ./cmd/jetsimd -batch 2>&1); then
		echo "cli smoke: a job with $field was accepted" >&2
		exit 1
	fi
	grep -q "job 0: json: unknown field $field" <<<"$err" ||
		{ echo "cli smoke: $field job failed for the wrong reason: $err" >&2; exit 1; }
done

# Two alias spellings of one job are one cache line: one of the two
# concurrently served results is the cold run, the other its cached
# replay, under one key with one momentum checksum.
out=$(printf '%s\n' \
	'{"id":"fresh","backend":"mp2d:v6","fresh":true,"procs":2,"nx":64,"nr":24,"steps":4}' \
	'{"id":"depth1","backend":"mp2d:v6","halo_depth":1,"procs":2,"nx":64,"nr":24,"steps":4}' |
	go run ./cmd/jetsimd -batch)
echo "$out"
distinct() { grep -o "\"$1\": \"[0-9a-f]*\"" <<<"$out" | sort -u | wc -l; }
[ "$(grep -c '"ok": true' <<<"$out")" -eq 2 ] || { echo "cli smoke: a job failed" >&2; exit 1; }
[ "$(grep -c '"cached": true' <<<"$out")" -eq 1 ] || { echo "cli smoke: alias spelling missed the cache" >&2; exit 1; }
[ "$(distinct key)" -eq 1 ] || { echo "cli smoke: alias spellings got different keys" >&2; exit 1; }
[ "$(distinct momentum_sha256)" -eq 1 ] || { echo "cli smoke: cached field differs from the cold run" >&2; exit 1; }
# platforms measures the same workload on this host next to the
# co-simulated 1995 platforms.
out=$(go run ./cmd/platforms -backend mp2d:v6 -procs 2 -nx 32 -nr 16 -steps 4 -chart=false)
echo "$out"
grep -q 'host mp2d:v6 (measured)' <<<"$out" ||
	{ echo "cli smoke: platforms printed no measured host column" >&2; exit 1; }

# A -procs no selected platform can run is an error, not an empty table.
if go run ./cmd/platforms -platform "Cray Y-MP" -procs 16 -chart=false; then
	echo "cli smoke: platforms accepted -procs above the Y-MP maximum" >&2
	exit 1
fi

# figures runs a named experiment and rejects an unknown one.
go run ./cmd/figures -exp table2
if go run ./cmd/figures -exp nope; then
	echo "cli smoke: figures accepted an unknown -exp" >&2
	exit 1
fi
echo "cli smoke: ok"
