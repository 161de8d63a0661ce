#!/usr/bin/env bash
# Non-test code lines per crate: for every `crates/<name>/src/*.rs`,
# the lines before the file's first `#[cfg(test)]`, excluding blank
# lines and every line that starts with `//`, so `///` and `//!` doc
# comments are not counted either.
# Subdirectories of `src/` (such as `bin/`) are not counted.
#
# Usage: scripts/loc.sh [crate ...]   (default: every crate)
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    crates=("$@")
else
    crates=()
    for dir in crates/*/; do
        [ -d "${dir}src" ] && crates+=("$(basename "$dir")")
    done
fi

total=0
for crate in "${crates[@]}"; do
    files=(crates/"$crate"/src/*.rs)
    [ -e "${files[0]}" ] || { echo "no sources for crate '$crate'" >&2; exit 1; }
    n=$(awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        in_test { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { count++ }
        END { print count + 0 }
    ' "${files[@]}")
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
