#!/usr/bin/env bash
# Compares perfbench at <rev> against the working tree in alternating
# pairs of runs.
#
# Usage: scripts/bench-pairs.sh <rev> <workload> <pairs> <seconds>
#   e.g. scripts/bench-pairs.sh HEAD~1 sweep_cold 10 20
#
# Exports <rev> with `git archive` into a temporary directory and
# builds perfbench from it and from the working tree, each into its
# own target directory. Then runs <pairs> pairs of <seconds>-second
# runs, alternating which side goes first, and prints per metric the
# median of each side, the ratio head / base and how many pairs head
# won, and the spread of base's own runs (its interquartile range). A
# gain is worth claiming when head wins nearly every pair and the
# medians differ by more than that spread. perfbench pins itself to
# one CPU. A report, not a gate: the exit code is nonzero only when a
# build or a run fails.
#
# Environment: BENCH_PAIRS_DIR keeps the builds and the raw result
# lines (base.jsonl, head.jsonl) there instead of in a temporary
# directory that is removed on exit; BENCH_PAIRS_SEED (default 1) is
# the perfbench seed.
set -euo pipefail

if [ "$#" -ne 4 ]; then
    echo "usage: $0 <rev> <workload> <pairs> <seconds>" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=$4
seed=${BENCH_PAIRS_SEED:-1}

cd "$(dirname "$0")/.."
head_tree=$(pwd)
if [ -n "${BENCH_PAIRS_DIR:-}" ]; then
    work=$BENCH_PAIRS_DIR
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
mkdir -p "$work/base"

git archive "$rev" | tar -x -C "$work/base"
build() { # <tree> <target dir>
    CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path "$1/perfbench/Cargo.toml"
}
echo "building base ($rev) and head (working tree) in $work" >&2
build "$work/base" "$work/base-target"
build "$head_tree" "$work/head-target"

# One run: appends the JSON result line to <side>.jsonl.
run() { # <side>
    local bin="$work/$1-target/release/chain-nn-perfbench"
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tail -n 1 >> "$work/$1.jsonl"
}
: > "$work/base.jsonl"
: > "$work/head.jsonl"
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then run base; run head; else run head; run base; fi
    echo "pair $((i + 1))/$pairs done" >&2
done

# `name value` per metric, one run per block, from the result lines.
metrics() { # <side>
    grep -o '"[a-z0-9_]*":{"value":[-0-9.eE+]*' "$work/$1.jsonl" \
        | sed 's/^"\([a-z0-9_]*\)":{"value":/\1 /'
}
median() { # values on stdin
    sort -g | awk '{ v[NR] = $1 } END {
        if (NR == 0) { print "nan"; exit }
        print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}
iqr() { # values on stdin; nearest-rank quartiles
    sort -g | awk '{ v[NR] = $1 } END {
        if (NR == 0) { print "nan"; exit }
        q1 = int((NR + 3) / 4); q3 = int((3 * NR + 3) / 4)
        print v[q3] - v[q1] }'
}
printf '%-22s %14s %14s %8s %6s %12s\n' metric base head ratio wins base_iqr
for name in $(metrics base | awk '{ print $1 }' | awk '!seen[$0]++'); do
    base=$(metrics base | awk -v n="$name" '$1 == n { print $2 }')
    head=$(metrics head | awk -v n="$name" '$1 == n { print $2 }')
    b=$(printf '%s\n' "$base" | median)
    h=$(printf '%s\n' "$head" | median)
    spread=$(printf '%s\n' "$base" | iqr)
    # Pairs where head beat base, by each metric's better direction.
    wins=$(paste <(printf '%s\n' "$base") <(printf '%s\n' "$head") | awk -v n="$name" '
        BEGIN { higher = (n ~ /(per_s|req_s|ratio)$/) }
        { if ((higher && $2 > $1) || (!higher && $2 < $1)) w++ }
        END { printf "%d/%d", w, NR }')
    awk -v n="$name" -v b="$b" -v h="$h" -v w="$wins" -v q="$spread" 'BEGIN {
        r = (b + 0 != 0) ? sprintf("%.3f", h / b) : "-"
        printf "%-22s %14.6g %14.6g %8s %6s %12.4g\n", n, b, h, r, w, q }'
done
