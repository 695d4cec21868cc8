#!/usr/bin/env bash
# Smoke gate for the benchmark: one set-up and one job per cell of every
# workload, untraced and traced, through the same entry point as real
# runs. Fails when a run is not correct or has a failed job, when a
# metric BENCHMARK.json declares is missing, unitless, mislabelled or not
# finite, or when a span file does not parse. After the first build it
# takes a few seconds. Run from the repository root:
#
#   bash benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out=build-bench/check
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
python3 benchmark/run.py --workload pingpong_small --smoke > /dev/null  # builds
mkdir -p "$out"
start=$SECONDS
for w in $workloads; do
  for t in 0 1; do
    python3 benchmark/run.py --workload "$w" --trace "$t" --smoke > "$out/$w.$t.out"
  done
done
echo "smoke runs took $((SECONDS - start)) s"

python3 - "$out" <<'EOF'
import json
import math
import sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
problems = []
for w in (w["name"] for w in spec["workloads"]):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = json.loads(open(f"{out}/{w}.{trace}.out").read().splitlines()[-1])
        where = f"{w} --trace {trace}"
        if result["correct"] is not True or result["failed"] != 0:
            problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        got = result["metrics"]
        for name in sorted(set(got) - set(declared)):
            problems.append(f"{where}: undeclared metric {name}")
        for name, unit in declared.items():
            m = got.get(name)
            if m is None:
                problems.append(f"{where}: missing {name}")
            elif not m.get("unit") or m["unit"] != unit:
                problems.append(f"{where}: {name} has unit {m.get('unit')!r}, declared {unit!r}")
            elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                problems.append(f"{where}: {name} = {m['value']!r}")
    try:
        spans = json.load(open(f"build-bench/trace/{w}.spans.json"))["traceEvents"]
        if not spans:
            problems.append(f"{w}: span file has no spans")
    except (OSError, ValueError, KeyError) as e:
        problems.append(f"{w}: span file does not parse: {e}")
for p in problems:
    print("FAIL", p)
print("check:", "ok" if not problems else f"{len(problems)} problem(s)")
sys.exit(1 if problems else 0)
EOF
