#!/bin/sh
# Non-test line counts of the Rust sources, by the ROADMAP's rule: every
# line of a file before its first `#[cfg(test)]` (the whole file when it
# has none). Prints one line per source directory, then their total.
#
#   scripts/nontest-lines.sh                    # crates/core/src, crates/gpu-sim/src
#   scripts/nontest-lines.sh --files crates/core/src
#
# `--files` adds one line per file, so a change can report where the
# lines moved.
set -eu
cd "$(dirname "$0")/.."

files=false
if [ "${1:-}" = "--files" ]; then
    files=true
    shift
fi
[ "$#" -gt 0 ] || set -- crates/core/src crates/gpu-sim/src

# "count path" for every Rust file under $1.
per_file() {
    find "$1" -name '*.rs' | LC_ALL=C sort | while read -r f; do
        awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, FILENAME }' "$f"
    done
}

total=0
for dir in "$@"; do
    counts=$(per_file "$dir")
    if $files; then
        printf '%s\n' "$counts" | awk '{ printf "%7d  %s\n", $1, $2 }'
    fi
    n=$(printf '%s\n' "$counts" | awk '{ s += $1 } END { print s + 0 }')
    printf '%7d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
