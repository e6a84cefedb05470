#!/usr/bin/env bash
# The deterministic half of rgpdbench, gated exactly: on the one-client
# workloads (ingest, processing, rights) the smoke-size medians of the
# count-derived metrics must equal the committed perf/smoke_counts.json.
#
# Reads the report `rgpdbench run --all --trace --smoke` writes (CI's
# rgpdbench job runs that first), writes the values it extracts beside the
# report as smoke_counts.json, and exits 1 with the diff when they differ
# from the committed file.  A change that moves them on purpose copies that
# file over perf/smoke_counts.json in the same diff, so the I/O change shows.
#
# usage: scripts/bench_gate.sh [report, default: reports/rgpdbench/smoke.json]
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
report=${1:-$root/reports/rgpdbench/smoke.json}
extracted=$(dirname "$report")/smoke_counts.json

jq --sort-keys '
    .workloads
    | with_entries(select(.key | IN("ingest", "processing", "rights")))
    | map_values(
        (.end_to_end | {sim_io_us_per_op, write_amp, space_amp})
        + (.per_layer | {
            "blockdev.reads", "blockdev.writes", "blockdev.flushes",
            "blockdev.bytes_written", "inode.journal_txs",
            "dbfs.snapshot_epochs", "core.audit_events"})
        | map_values(.median))
' "$report" >"$extracted"

if ! diff -u "$root/perf/smoke_counts.json" "$extracted"; then
    echo "count-derived smoke metrics moved; if on purpose:" >&2
    echo "  cp $extracted perf/smoke_counts.json" >&2
    exit 1
fi
echo "count-derived smoke metrics equal perf/smoke_counts.json"
