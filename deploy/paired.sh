#!/usr/bin/env bash
# Alternating paired runs of the contract benchmark: the rule every perf
# claim and every no-regression table in this repo is held to
# (benchmark/README.md — the 2-vCPU box has a fast and a slow state that
# move timings by a third, so only back-to-back pairs compare).
#
# Usage: deploy/paired.sh <parent-ref> <change-ref> <workload> <n> [first-seed]
#
#   Checks each ref out into its own `git worktree`, builds each side's
#   `benchmark/` into its own CARGO_TARGET_DIR, then runs
#       benchmark/run.sh --workload <workload> --seed <i> --trace 0
#   for i = first-seed..first-seed+n-1 (first-seed defaults to 1; a later
#   one reruns a claim on seeds it was not tuned on) on both sides,
#   alternating which side goes first. Prints,
#   per metric, both medians with their quartiles and how many pairs the
#   change won, lost and tied, and appends the same table as one JSON line
#   to results/BENCH_history.jsonl. A <ref> that names a directory is used
#   as that side's checkout as it stands (an uncommitted working tree, `.`).
#
#   A run that printed no verdict line, or lacks a bounded metric (one some
#   verdict lists), fails the invocation (exit 1, naming side and seed): no
#   table, no history line — an empty comparison must not read as "nothing
#   regressed". Context metrics only some runs report (a percentile that
#   needs more samples than a run took) are named on stderr and left out.
#
#   Worktrees live under target/paired/ and are removed on exit; the two
#   target directories stay, so a second invocation rebuilds incrementally.
set -euo pipefail

if [[ $# -ne 4 && $# -ne 5 ]]; then
    sed -n '2,27p' "$0" >&2
    exit 2
fi
workload="$3"
pairs="$4"
first="${5:-1}"
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$repo/target/paired"
mkdir -p "$work"

worktrees=()
cleanup() {
    for dir in "${worktrees[@]}"; do
        git -C "$repo" worktree remove --force "$dir" >/dev/null 2>&1 || true
    done
}
trap cleanup EXIT

declare -A src commit
for side in parent change; do
    ref="$1"
    shift
    if [[ -d "$ref" ]]; then
        src[$side]="$(cd "$ref" && pwd)"
    else
        src[$side]="$work/$side"
        git -C "$repo" worktree remove --force "${src[$side]}" >/dev/null 2>&1 || true
        git -C "$repo" worktree add --detach "${src[$side]}" "$ref" >&2
        worktrees+=("${src[$side]}")
    fi
    commit[$side]="$(git -C "${src[$side]}" describe --always --dirty --exclude='*' || echo unknown)"
    # Build now, so no measured run follows a compile (a side that does not
    # build stops the script here, under `set -e`).
    cargo build --offline --release \
        --manifest-path "${src[$side]}/benchmark/Cargo.toml" \
        --target-dir "$work/target-$side" >&2
done

seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "${src[change]}/BENCHMARK.json")"
out="$(mktemp -d "$work/out.XXXXXX")"

run_side() { # side seed
    CARGO_TARGET_DIR="$work/target-$1" bash "${src[$1]}/benchmark/run.sh" \
        --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 \
        >"$out/$1.$2" 2>"$out/$1.$2.err" ||
        echo "warning: $1 seed $2 exited non-zero (see $out/$1.$2.err)" >&2
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order=(parent change); else order=(change parent); fi
    seed=$((first + i - 1))
    echo "pair $i/$pairs (seed $seed): ${order[0]} then ${order[1]}" >&2
    for side in "${order[@]}"; do
        run_side "$side" "$seed"
    done
done
echo "raw outputs: $out" >&2

python3 - "$out" "$workload" "$pairs" "$repo/results/BENCH_history.jsonl" \
    "${commit[parent]}" "${commit[change]}" "$first" <<'EOF'
import json, statistics, sys

out, workload, pairs, history = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
commits = {"parent": sys.argv[5], "change": sys.argv[6]}
seeds = list(range(int(sys.argv[7]), int(sys.argv[7]) + pairs))
HIGHER_IS_BETTER = {"wu_per_s", "final_val_acc"}

def read(side, seed):
    metrics, verdict, host = {}, None, {}
    for line in open(f"{out}/{side}.{seed}"):
        parts = line.split()
        if line.startswith("{"):
            verdict = json.loads(line)
        elif line.startswith("host {"):
            host = json.loads(line[5:])
        elif len(parts) == 5 and parts[0] == workload and parts[4].startswith("n="):
            metrics[parts[1]] = float(parts[2])
    return metrics, verdict, host

runs = {side: [read(side, i) for i in seeds] for side in commits}
every = [r for side in runs.values() for r in side]
bounded = list(dict.fromkeys(m for r in every if r[1] for m in r[1]["metrics"]))
bad = [f"  {side} seed {seed}: " + ("no verdict line" if r[1] is None else f"lacks {lacks}")
       for side in runs for seed, r in zip(seeds, runs[side])
       if (lacks := [m for m in bounded if m not in r[0]]) or r[1] is None]
if bad:
    sys.exit("\n".join([f"paired: {workload}: incomplete runs, no table, no history line"] + bad))
seen = list(dict.fromkeys(m for r in every for m in r[0]))
names = [m for m in seen if all(m in r[0] for r in every)]
if len(names) < len(seen):
    print(f"context metrics not in every run, left out: {sorted(set(seen) - set(names))}", file=sys.stderr)

def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return [med, q1, q3]

table = {}
print(f"{workload}: {pairs} alternating pairs (change vs parent)")
print(f"{'metric':<24} {'parent median [q1, q3]':>44} {'change median [q1, q3]':>44}  won/lost/tied")
for name in names:
    p = [r[0][name] for r in runs["parent"]]
    c = [r[0][name] for r in runs["change"]]
    higher = name in HIGHER_IS_BETTER or "gflops" in name or "_mb_s" in name
    sign = 1 if higher else -1
    won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    lost = sum(sign * (b - a) < 0 for a, b in zip(p, c))
    tied = pairs - won - lost
    table[name] = {"parent": spread(p), "change": spread(c), "won": won, "lost": lost, "tied": tied}
    cell = lambda side: "{:.9g} [{:.9g}, {:.9g}]".format(*table[name][side])
    print(f"{name:<24} {cell('parent'):>44} {cell('change'):>44}  {won}/{lost}/{tied}")
correct = {side: sum(r[1]["correct"] for r in runs[side]) for side in runs}
failed = {side: [sum(r[1][k] for r in runs[side]) for k in ("failed", "attempted")] for side in runs}
for side in runs:
    print(f"{side}: {correct[side]}/{pairs} runs correct, "
          f"{failed[side][0]} of {failed[side][1]} operations failed")
host = {k: runs["change"][0][2].get(k) for k in ("nproc", "cpu_model", "vc_threads")}
with open(history, "a") as f:
    line = {**commits, "workload": workload, "pairs": pairs}
    if seeds[0] != 1:
        line["seeds"] = seeds
    f.write(json.dumps({**line, "host": host, "metrics": table, "correct": correct,
                        "failed": failed}) + "\n")
EOF
