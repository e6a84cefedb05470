#!/usr/bin/env bash
# Alternating pairs of single-workload rgpdbench runs, parent against change,
# judged by the rule a perf claim must meet: the change is better in at least
# 9 pairs of 10, and its median is better than the parent's by more than the
# parent's interquartile range.
#
# Runs `<bin> --workload <workload> --seconds 8 --trace 0 [--seed S]` once per
# side per pair, the parent first in odd pairs and the change first in even
# ones, and stops at the first run that fails.  Then, for every end-to-end
# metric of BENCHMARK.json, prints both sides' first quartile, median and
# third quartile, the change's wins (by the metric's `better`) and whether
# the rule holds.  The result lines are kept in a temporary directory
# (parent.jsonl, change.jsonl), whose path is printed.
#
# usage: scripts/bench_pairs.sh <parent-bin> <change-bin> <workload> <pairs> [seed]
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: $0 <parent-bin> <change-bin> <workload> <pairs> [seed]" >&2
    exit 2
fi
parent=$(realpath "$1") change=$(realpath "$2") workload=$3 pairs=$4
seed=()
if [ $# -eq 5 ]; then seed=(--seed "$5"); fi
out=$(mktemp -d)

run() { # <side> <binary>
    local line
    line=$(cd "$out" && "$2" --workload "$workload" --seconds 8 --trace 0 "${seed[@]}" | tail -n 1)
    if ! jq -e '.correct and .failed == 0' <<<"$line" >/dev/null; then
        echo "$1 run failed: $line" >&2
        exit 1
    fi
    echo "$line" >>"$out/$1.jsonl"
}

for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        run parent "$parent"
        run change "$change"
    else
        run change "$change"
        run parent "$parent"
    fi
    echo "pair $((i + 1))/$pairs done" >&2
done

echo "$workload, $pairs pairs${seed[*]:+, ${seed[*]}} (results in $out)"
printf '%-17s %33s   %33s   %-7s %s\n' metric "parent q1 / median / q3" \
    "change q1 / median / q3" wins "9/10 and gap > IQR"
jq -r --slurpfile p "$out/parent.jsonl" --slurpfile c "$out/change.jsonl" '
    def quartile($q): sort as $s | ($s | length - 1) as $last | ($last * $q) as $h
        | ($h | floor) as $lo
        | $s[$lo] + ($h - $lo) * ($s[[$lo + 1, $last] | min] - $s[$lo]);
    .end_to_end[] | .name as $m | .better as $better
    | def better($a; $b): if $better == "lower" then $a < $b else $a > $b end;
    [$p[].metrics[$m].value] as $pv | [$c[].metrics[$m].value] as $cv
    | select($pv + $cv | all(. != null))
    | [$pv, $cv | quartile(0.25, 0.5, 0.75)] as [$p1, $pm, $p3, $c1, $cm, $c3]
    | [range($pv | length) | select(better($cv[.]; $pv[.]))] as $wins
    | ($wins | length) * 10 >= ($pv | length) * 9
      and better($cm; $pm) and ($cm - $pm | fabs) > $p3 - $p1
    | [$m, $p1, $pm, $p3, $c1, $cm, $c3, ($wins | length), ($pv | length),
       if . then "met" else "no" end]
    | @tsv
' "$root/BENCHMARK.json" |
    awk -F'\t' '{ printf "%-17s %9.4g / %9.4g / %9.4g   %9.4g / %9.4g / %9.4g   %3d/%-3d %s\n",
        $1, $2, $3, $4, $5, $6, $7, $8, $9, $10 }'
