#!/usr/bin/env bash
# A/B comparison of two revisions on one end-to-end benchmark workload.
#
# Usage: scripts/perf_pairs.sh <parent-rev> <change-rev> <workload> <first-seed> [pairs]
#
# - Exports each revision with `git archive` into a sibling directory
#   named after its 12-character commit id, under
#   `${TMPDIR:-/tmp}/deco-perf-pairs/`, so both paths have the same
#   length (a binary built in the repository and one built in a scratch
#   directory read ratios 1-2% apart on the same code), and builds
#   perfbench in each. An existing export with a built binary is reused.
# - Runs `pairs` (default 10) alternating pairs of
#   `--workload <workload> --seed <seed> --seconds <run_seconds> --trace 0`,
#   with `run_seconds` read from BENCHMARK.json and pair i on seed
#   first-seed + i - 1. Odd pairs run the parent first, even pairs the
#   change. Each side runs from its own export directory (a serve_fleet
#   run spills under its working directory). Every JSON line is kept in
#   `${TMPDIR:-/tmp}/deco-perf-pairs/runs/`.
# - Prints, per end-to-end metric of BENCHMARK.json: each side's median
#   and quartiles, the parent's interquartile range, the median paired ratio
#   (change / parent), how many pairs the change was better in (ties
#   count for neither side), and `unresolved` where the gap between the
#   medians is smaller than the parent's IQR. A median worse than the
#   parent's by more than the metric's bound is flagged. Then each
#   side's failed/attempted counts.
# - Runs each side once at `--seconds 0 --seed 3` and prints both
#   digests, peak heaps and final accuracies: a timed run's length, and
#   with it its digest and `final_accuracy`, depends on the build's
#   speed, so bits and accuracy compare at the fixed length.
#
# Writes nothing in the repository. Needs git, cargo, tar and python3.
set -euo pipefail

if [[ $# -lt 4 || $# -gt 5 ]]; then
    echo "usage: $0 <parent-rev> <change-rev> <workload> <first-seed> [pairs]" >&2
    exit 2
fi
parent_rev=$1 change_rev=$2 workload=$3 first_seed=$4 pairs=${5:-10}
if ! [[ "$first_seed" =~ ^[0-9]+$ && "$pairs" =~ ^[1-9][0-9]*$ ]]; then
    echo "perf_pairs: first-seed must be a non-negative integer and pairs positive" >&2
    exit 2
fi

repo=$(cd "$(dirname "$0")/.." && pwd)
parent=$(git -C "$repo" rev-parse --verify "$parent_rev^{commit}")
change=$(git -C "$repo" rev-parse --verify "$change_rev^{commit}")
if [[ "$parent" == "$change" ]]; then
    echo "perf_pairs: both revisions are $parent" >&2
    exit 2
fi
run_seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$repo/BENCHMARK.json")

root=${TMPDIR:-/tmp}/deco-perf-pairs
mkdir -p "$root/runs"

# Exports and builds one revision; prints its directory.
prepare() {
    local commit=$1 dir
    dir=$root/${commit:0:12}
    if [[ ! -x "$dir/perfbench/target/release/deco-perfbench" ]]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git -C "$repo" archive "$commit" | tar -x -C "$dir"
        echo "perf_pairs: building ${commit:0:12} in $dir" >&2
        (cd "$dir" && env -u CARGO_TARGET_DIR \
            cargo build --release --quiet --manifest-path perfbench/Cargo.toml)
    fi
    echo "$dir"
}

parent_dir=$(prepare "$parent")
change_dir=$(prepare "$change")

# Runs one side; prints its last output line (perfbench's JSON summary),
# or an error object when the run fails.
run_side() {
    local dir=$1 seed=$2 seconds=$3 out
    if out=$(cd "$dir" && ./perfbench/target/release/deco-perfbench \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0); then
        tail -n 1 <<<"$out"
    else
        echo '{"error": "perfbench exited nonzero"}'
    fi
}

log=$root/runs/$workload-${parent:0:12}-${change:0:12}-$first_seed-$pairs.jsonl
: >"$log"
for ((i = 1; i <= pairs; i++)); do
    seed=$((first_seed + i - 1))
    if ((i % 2 == 1)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [[ $side == parent ]]; then dir=$parent_dir; else dir=$change_dir; fi
        line=$(run_side "$dir" "$seed" "$run_seconds")
        printf '{"pair": %d, "seed": %d, "side": "%s", "result": %s}\n' \
            "$i" "$seed" "$side" "$line" >>"$log"
    done
    echo "perf_pairs: pair $i/$pairs (seed $seed) done" >&2
done

python3 - "$repo/BENCHMARK.json" "$log" <<'EOF'
import json
import statistics
import sys

bench = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]


def num(v):
    return f"{v:.0f}" if abs(v) >= 1e5 else f"{v:.6g}"


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


by_pair = {}
counts = {"parent": [0, 0, 0], "change": [0, 0, 0]}  # failed, attempted, runs without output
for r in runs:
    res = r["result"]
    if "metrics" not in res:
        counts[r["side"]][2] += 1
        continue
    counts[r["side"]][0] += res["failed"]
    counts[r["side"]][1] += res["attempted"]
    by_pair.setdefault(r["pair"], {})[r["side"]] = res["metrics"]
complete = [p for p in sorted(by_pair) if len(by_pair[p]) == 2]
print(f"# {len(complete)} complete pairs; runs in {sys.argv[2]}")
print(f"{'metric':<16} {'parent median [q1, q3]':>36} {'IQR':>10} "
      f"{'change median [q1, q3]':>36} {'ratio':>6} {'better':>7}  verdict")
for m in bench["end_to_end"]:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    ps = [by_pair[p]["parent"][name]["value"] for p in complete]
    cs = [by_pair[p]["change"][name]["value"] for p in complete]
    if not ps:
        continue
    pm, cm = statistics.median(ps), statistics.median(cs)
    (p1, p3), (c1, c3) = quartiles(ps), quartiles(cs)
    iqr = p3 - p1
    ratios = [c / p for p, c in zip(ps, cs) if p != 0]
    ratio = statistics.median(ratios) if ratios else float("nan")
    better = sum((c > p) if higher else (c < p) for p, c in zip(ps, cs))
    if cm == pm:
        verdict = "same median"
    elif abs(cm - pm) < iqr:
        verdict = "unresolved"
    else:
        verdict = "change better" if (cm > pm) == higher else "change worse"
    worse = ((pm - cm) if higher else (cm - pm)) / abs(pm) if pm else 0.0
    if worse > bound:
        verdict += f"  WORSE THAN BOUND ({worse:+.1%}, bound {bound:.0%})"
    spread = lambda m, a, b: f"{num(m)} [{num(a)}, {num(b)}]"
    print(f"{name:<16} {spread(pm, p1, p3):>36} {num(iqr):>10} {spread(cm, c1, c3):>36} "
          f"{ratio:>6.3f} {better:>3}/{len(ps):<3}  {verdict}")
for side in ("parent", "change"):
    failed, attempted, broken = counts[side]
    print(f"# {side}: {failed} failed of {attempted} attempted; {broken} runs without output")
EOF

echo "# fixed length (--seconds 0 --seed 3)"
for side in parent change; do
    if [[ $side == parent ]]; then dir=$parent_dir; else dir=$change_dir; fi
    out=$(cd "$dir" && ./perfbench/target/release/deco-perfbench \
        --workload "$workload" --seed 3 --seconds 0 --trace 0)
    digest=$(sed -n 's/^# digest //p' <<<"$out")
    heap=$(sed -n 's/^peak_heap_bytes \([0-9]*\) bytes$/\1/p' <<<"$out")
    acc=$(sed -n 's/^final_accuracy \([^ ]*\) fraction$/\1/p' <<<"$out")
    echo "$side ${dir##*/}: digest $digest peak_heap_bytes $heap final_accuracy $acc"
done
