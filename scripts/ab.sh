#!/usr/bin/env bash
# A/B the repo benchmark: the working tree against a base revision.
#
#   scripts/ab.sh <base-rev> <workload> [--pairs N] [--seconds S] [--seed K]
#
# Checks <base-rev> out in a temporary `git worktree`, builds perfbench
# (release, offline) in both trees, then runs N pairs of <workload>,
# alternating which side runs first: odd pairs run the base first, even
# pairs the change. Each run prints its metrics on one line to stderr
# (the pair table). At the end it prints, for every end-to-end metric of
# BENCHMARK.json, each side's median and quartiles, the ratio of the
# medians (change / base), the pairs the change won and lost (ties count
# for neither), and a verdict:
#
#   better / worse  the change won (lost) at least nine tenths of the
#                   pairs and the medians differ by more than the base's
#                   interquartile range;
#   -               neither holds: no difference can be claimed;
#   few pairs       fewer than ten pairs ran, too few to claim anything.
#
# A last column flags a median worse than the base's by more than the
# metric's BENCHMARK.json bound.
#
# Defaults: 10 pairs, BENCHMARK.json's run_seconds, seed 1. The worktree
# and both builds live in a directory under $TMPDIR (default /tmp) that
# is removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/ab.sh <base-rev> <workload> [--pairs N] [--seconds S] [--seed K]" >&2
    exit 2
}
[ "$#" -ge 2 ] || usage
base_rev=$1
workload=$2
shift 2
pairs=10
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
seed=1
while [ "$#" -gt 0 ]; do
    [ "$#" -ge 2 ] || usage
    case $1 in
        --pairs) pairs=$2 ;;
        --seconds) seconds=$2 ;;
        --seed) seed=$2 ;;
        *) usage ;;
    esac
    shift 2
done
[ "$pairs" -ge 1 ] || usage

work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
cleanup() {
    git worktree remove --force "$work/base" 2>/dev/null || true
    git worktree prune
    rm -rf "$work"
}
trap cleanup EXIT

git worktree add --quiet --detach "$work/base" "$base_rev"
build() { # <tree> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --quiet --offline \
        --manifest-path "$1/perfbench/Cargo.toml"
}
echo "building perfbench at $base_rev and in the working tree" >&2
build "$work/base" "$work/target-base"
build . "$work/target-head"

run() { # <side> <pair>
    local line
    line=$("$work/target-$1/release/perf" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" | tail -n 1)
    echo "$line" >>"$work/$1.jsonl"
    python3 -c '
import json, sys
r = json.loads(sys.argv[2])
values = " ".join("%s=%.4g" % (k, v["value"]) for k, v in r["metrics"].items())
print("%s: failed=%d %s" % (sys.argv[1], r["failed"], values))' "pair $2 $1" "$line" >&2
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then
        run base "$i"
        run head "$i"
    else
        run head "$i"
        run base "$i"
    fi
done

echo "$workload: $pairs pairs of ${seconds}s, seed $seed; base $base_rev vs the working tree"
python3 - "$work/base.jsonl" "$work/head.jsonl" <<'EOF'
import json, math, statistics, sys

metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
base = [json.loads(l) for l in open(sys.argv[1])]
head = [json.loads(l) for l in open(sys.argv[2])]
pairs = len(base)


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


for side, runs in (("base", base), ("change", head)):
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    correct = all(r["correct"] for r in runs)
    print(f"{side}: {attempted} ops, {failed} failed, outputs correct: {correct}")

fmt = "{:<14} {:>32} {:>32} {:>7} {:>9} {:>9} {:>6}"
print(fmt.format("metric", "base q1 / median / q3", "change q1 / median / q3",
                 "ratio", "won/lost", "verdict", "bound"))
for m in metrics:
    name = m["name"]
    if not all(name in r["metrics"] for r in base + head):
        continue
    b = [r["metrics"][name]["value"] for r in base]
    h = [r["metrics"][name]["value"] for r in head]
    sign = 1 if m["better"] == "higher" else -1
    won = sum(sign * (y - x) > 0 for x, y in zip(b, h))
    lost = sum(sign * (y - x) < 0 for x, y in zip(b, h))
    bq, hq = quartiles(b), quartiles(h)
    gain = sign * (hq[1] - bq[1])
    iqr = bq[2] - bq[0]
    need = math.ceil(0.9 * pairs)
    verdict = "-"
    if pairs < 10:
        verdict = "few pairs"
    elif won >= need and gain > iqr:
        verdict = "better"
    elif lost >= need and -gain > iqr:
        verdict = "worse"
    worse_share = -gain / abs(bq[1]) if bq[1] else 0.0
    bound = "over" if worse_share > m["bound"] else "ok"
    ratio = f"{hq[1] / bq[1]:.3f}" if bq[1] else "-"
    show = lambda q: " / ".join(f"{v:.4g}" for v in q)
    print(fmt.format(name, show(bq), show(hq), ratio, f"{won}/{lost}", verdict, bound))
EOF
