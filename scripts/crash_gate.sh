#!/usr/bin/env bash
# Crash-point counts, gated exactly: per seed, each crashgrind sweep's
# `crash_points` — the number of device writes its scripted workload makes —
# must equal the committed perf/crash_counts.json.
#
# Reads the `--json` reports crashgrind writes (CI's crash-matrix job runs
# both seeds first), writes the counts it extracts beside the first report as
# crash_counts.json, and exits 1 with the diff when they differ from the
# committed file.  A change that moves a count on purpose copies that file
# over perf/crash_counts.json in the same diff and says which sweep moved.
#
# It also fails, naming the seed, when a seed's `sharded-scrub-1` (the scrub
# script on a one-shard router) differs from its `dbfs-scrub`: a one-shard
# router must make exactly the device writes of the single-device store.
#
# usage: scripts/crash_gate.sh [report...]
#   (default: reports/crash-results.json reports/crash-results-d5c0de.json)
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -eq 0 ]; then
    set -- "$root/reports/crash-results.json" "$root/reports/crash-results-d5c0de.json"
fi
extracted=$(dirname "$1")/crash_counts.json

jq --slurp --sort-keys '
    def hex: [recurse(if . >= 16 then . / 16 | floor else empty end) | . % 16]
        | reverse | map(. as $d | "0123456789ABCDEF" | .[$d:$d + 1])
        | "0x" + join("");
    map({(.seed | hex): (.sweeps | map({(.scenario): .crash_points}) | add)})
    | add
' "$@" >"$extracted"

status=0
apart=$(jq -r '
    to_entries[] | select(.value["sharded-scrub-1"] != .value["dbfs-scrub"])
    | "seed \(.key): sharded-scrub-1 \(.value["sharded-scrub-1"]) != dbfs-scrub \(.value["dbfs-scrub"])"
' "$extracted")
if [ -n "$apart" ]; then
    echo "a one-shard router's device writes differ from Dbfs's:" >&2
    echo "$apart" >&2
    status=1
fi
if ! diff -u "$root/perf/crash_counts.json" "$extracted"; then
    echo "crash-point counts moved; if on purpose:" >&2
    echo "  cp $extracted perf/crash_counts.json" >&2
    status=1
fi
[ "$status" -eq 0 ] || exit 1
echo "crash-point counts equal perf/crash_counts.json"
