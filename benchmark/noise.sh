#!/usr/bin/env bash
# A/A noise study: two sets of runs of one build, alternating, so that both
# see the same host over the same minutes. Writes benchmark/NOISE.md.
#
#   benchmark/noise.sh [pairs] [seconds]
#
# `pairs` (default 10) runs per set and workload, each pair on its own seed;
# `seconds` defaults to run_seconds of BENCHMARK.json. Takes about
# 2 * pairs * 4 * (seconds + set-up) seconds: 45 minutes at the defaults.
# With `pairs` 0 it only rewrites NOISE.md from the runs already in
# benchmark/out/noise.jsonl.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
pairs="${1:-10}"
seconds="${2:-$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")}"
target="${CARGO_TARGET_DIR:-$here/target}"

raw="$here/out/noise.jsonl"
if ((pairs > 0)); then
  cargo build --release --manifest-path "$here/Cargo.toml"
  bin="$target/release/calu-benchmark"
  mkdir -p "$here/out"
  : > "$raw"
fi

workloads="$(python3 -c "import json; print(' '.join(w['name'] for w in json.load(open('$root/BENCHMARK.json'))['workloads']))")"
for pair in $(seq 1 "$pairs"); do
  seed=$((2008 + pair))
  # Alternate which set goes first.
  if ((pair % 2)); then order="A B"; else order="B A"; fi
  for set in $order; do
    for workload in $workloads; do
      echo "pair $pair set $set $workload" >&2
      line="$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
      echo "{\"set\": \"$set\", \"workload\": \"$workload\", \"seed\": $seed, \"result\": $line}" >> "$raw"
    done
  done
done

python3 - "$raw" "$root/BENCHMARK.json" "$seconds" > "$here/NOISE.md" <<'EOF'
import json, statistics, sys

raw, contract, seconds = sys.argv[1], json.load(open(sys.argv[2])), sys.argv[3]
runs = [json.loads(line) for line in open(raw)]
assert all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in runs), "a run failed"
bounds = {m["name"]: m for m in contract["end_to_end"]}

def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med, (max(values) - min(values)) / med

print("# A/A noise of the end-to-end metrics\n")
print(f"Written by `benchmark/noise.sh`: two sets (A, B) of {len(runs) // 2 // len(contract['workloads'])} runs")
print(f"per workload, {seconds} s each, one build, sets alternating, run `i` of both sets on seed")
print("`2008 + i`. Quartiles are `statistics.quantiles(values, n=4)`. *spread* is")
print("(q3 − q1) / median and must stay under the bound; *range* is (max − min) / median;")
print("*gap* is how much worse set B's median is than set A's, as a share of A's, and must")
print("stay under the bound too. Negative gap: B was better.\n")
worst = {}
for w in contract["workloads"]:
    print(f"## {w['name']}\n")
    print("| metric | set | median | q1 | q3 | spread | range | gap B vs A | bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name, m in bounds.items():
        sets = {}
        for s in "AB":
            sets[s] = [r["result"]["metrics"][name]["value"] for r in runs
                       if r["set"] == s and r["workload"] == w["name"]]
        sign = 1 if m["better"] == "lower" else -1
        gap = sign * (statistics.median(sets["B"]) - statistics.median(sets["A"])) / statistics.median(sets["A"])
        for s in "AB":
            med, q1, q3, spread, rng = stats(sets[s])
            worst[name] = max(worst.get(name, 0), spread if name != "setup_s" else 0, abs(gap))
            gap_cell = f"{gap:+.2%}" if s == "B" else ""
            print(f"| `{name}` | {s} | {med:.6g} {m['unit']} | {q1:.6g} | {q3:.6g} | {spread:.2%} | {rng:.2%} | {gap_cell} | {m['bound']:.0%} |")
    print()
print("## Bounds\n")
print("Worst spread (either set, any workload; `setup_s` is exempt from the spread rule)")
print("or absolute gap per metric, against the bound in `BENCHMARK.json`. A bound is three")
print("times the worst value seen here, or the contract's cap of 0.25 where that is less.")
print("Run to run the host repeats to about 1 %; what the quartiles show is its speed")
print("drifting by up to 10 % over tens of minutes, for all four workloads alike, so a")
print("longer run does not narrow them. `serve_mixed` adds jitter of its own: its hit path")
print("is thread start-up and hand-over, which the host's scheduler decides.\n")
print("| metric | worst spread or gap | bound | bound / worst |")
print("|---|---|---|---|")
for name, m in bounds.items():
    print(f"| `{name}` | {worst[name]:.2%} | {m['bound']:.0%} | {m['bound'] / worst[name]:.1f} |")
EOF
echo "wrote $here/NOISE.md" >&2
