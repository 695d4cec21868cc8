#!/usr/bin/env bash
# Runs N alternating pairs of sets (A, then B) of every workload, seed i
# in pair i, and reports per workload and end-to-end metric each set's
# median, quartiles, spread (quartile distance / median, as
# statistics.quantiles(n=4) gives them) and max/min, then set B's median
# against set A's. It exits 1 when a run is not correct or a median moved
# by more than the metric's bound in BENCHMARK.json; use it to re-derive
# the bounds (a spread should stay below a third of its bound). Run from
# the repository root:
#
#   bash benchmark/repeat.sh 5          # 5 runs per set and workload
#   bash benchmark/repeat.sh 10 15      # ... of 15 seconds each
set -euo pipefail
cd "$(dirname "$0")/.."

n=${1:?usage: benchmark/repeat.sh N [SECONDS]}
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
out=build-bench/repeat
mkdir -p "$out"
rm -f "$out"/*.jsonl
for i in $(seq 1 "$n"); do
  for set in A B; do
    for w in $workloads; do
      python3 benchmark/run.py --workload "$w" --seed "$i" --seconds "$seconds" \
        | tail -n 1 >> "$out/$w.$set.jsonl"
    done
  done
done

python3 - "$out" <<'EOF'
import json
import statistics
import sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
bad = 0
for w in (w["name"] for w in spec["workloads"]):
    runs = {s: [json.loads(l) for l in open(f"{out}/{w}.{s}.jsonl")] for s in "AB"}
    wrong = [r for s in "AB" for r in runs[s] if not r["correct"] or r["failed"]]
    print(f"{w}: {len(runs['A'])}+{len(runs['B'])} runs, {len(wrong)} not correct")
    bad += len(wrong)
    print(f"  {'metric':<18} set {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'max/min':>7}")
    for m in spec["end_to_end"]:
        med = {}
        for s in "AB":
            v = [r["metrics"][m["name"]]["value"] for r in runs[s]]
            q1, q2, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            med[s] = statistics.median(v)
            print(f"  {m['name']:<18} {s:>3} {med[s]:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {(q3 - q1) / med[s]:7.2%} {max(v) / min(v):7.3f}")
        change = (med["B"] - med["A"]) / med["A"]
        worse = change if m["better"] == "lower" else -change
        verdict = "ok" if worse <= m["bound"] else "BEYOND BOUND"
        if worse > m["bound"]:
            bad += 1
        print(f"  {m['name']:<18} B vs A {change:+7.2%} (bound {m['bound']:.0%}) {verdict}")
sys.exit(1 if bad else 0)
EOF
