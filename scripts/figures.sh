#!/bin/sh
# Regenerate (or check) the committed outputs of the deterministic figure
# binaries: each binary's stdout is `results/<bin>.txt`, run at the default
# scale and seed (`ADAPTIC_SCALE` and `ADAPTIC_DRIFT_SEED` unset).
#
#   scripts/figures.sh                  # rewrite the default list's files
#   scripts/figures.sh --check          # diff against the committed files
#   scripts/figures.sh [--check] fig12  # only the named binaries
#
# The default list runs in about 10 s in release on a 2-core host. `fig12`
# is left out of it: it takes about 110 s there, so it is regenerated or
# checked only when named.
set -eu
cd "$(dirname "$0")/.."

check=false
if [ "${1:-}" = "--check" ]; then
    check=true
    shift
fi
[ "$#" -gt 0 ] || set -- fig1 fig9 fig10 fig11 insensitive portability ablations codesize \
    drift_adaptivity fleet_throughput

cargo build --release --quiet -p adaptic-bench --bins
unset ADAPTIC_SCALE ADAPTIC_WORKERS ADAPTIC_DRIFT_SEED

status=0
for bin in "$@"; do
    if $check; then
        out=$(mktemp)
        "${CARGO_TARGET_DIR:-target}/release/$bin" >"$out"
        if diff -u "results/$bin.txt" "$out"; then
            echo "$bin: matches results/$bin.txt"
        else
            echo "$bin: differs from results/$bin.txt" >&2
            status=1
        fi
        rm -f "$out"
    else
        "${CARGO_TARGET_DIR:-target}/release/$bin" >"results/$bin.txt"
        echo "$bin: wrote results/$bin.txt"
    fi
done
exit $status
