#!/usr/bin/env bash
# Line counts by the convention CHANGES.md uses since PR 19.
#
# Counted: first-party `.rs` files, i.e. everything outside `rgpdbench/`,
# `third_party/` and build output.  A file under `tests/`, `crates/*/tests/`
# or `examples/` is all test lines; any other file is non-test up to (not
# including) its first `#[cfg(test)]` line and test from there on.
#
# The non-test total is a ratchet: when the checkout has a `scripts/loc.max`,
# a total above the number in it fails the script (CI's `lint` job runs it).
# A PR that grows the tree on purpose edits that number in the same diff; one
# that shrinks it lowers the number to the new total.
#
# usage: scripts/loc.sh [repo root, default: the checkout this script is in]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
max=$(cat scripts/loc.max 2>/dev/null || echo 0)

find . -name '*.rs' \
    -not -path './rgpdbench/*' -not -path './third_party/*' \
    -not -path './target/*' -not -path './.bench_build/*' |
    sort |
    while read -r file; do
        total=$(wc -l <"$file")
        case "$file" in
        ./tests/* | ./crates/*/tests/* | ./examples/*) split=0 ;;
        *)
            first=$(grep -n -m1 '#\[cfg(test)\]' "$file" | cut -d: -f1 || true)
            split=$((${first:-$((total + 1))} - 1))
            ;;
        esac
        echo "$split $((total - split)) ${file#./}"
    done |
    awk -v max="$max" '
        { non_test += $1; test += $2; files[$3] = $1 }
        END {
            printf "non-test %d\ntests    %d\n\ntop 10 files by non-test lines\n", non_test, test
            for (f in files) printf "%6d %s\n", files[f], f | "sort -rn | head -10"
            close("sort -rn | head -10")
            if (max > 0 && non_test > max) {
                printf "\nnon-test %d exceeds scripts/loc.max (%d)\n", non_test, max
                exit 1
            }
        }'
