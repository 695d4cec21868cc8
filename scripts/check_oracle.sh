#!/usr/bin/env bash
# Byte-identical oracle: regenerates every deterministic result CSV in a
# temporary directory and compares each one with the committed copy in
# results/. A refactor that changes no behaviour leaves all of them
# unchanged; any difference is printed and fails the check. Takes about
# 20 s after a build. Run from anywhere:
#
#   scripts/check_oracle.sh                # uses build/bench
#   scripts/check_oracle.sh BIN_DIR        # benches from another build
#   scripts/check_oracle.sh BIN_DIR OUT    # also keeps CSVs and traces in OUT
#   scripts/check_oracle.sh BIN_DIR OUT REF
#       # also cmp's the four Chrome traces with those in REF, the OUT
#       # of an earlier run (e.g. of the parent commit's build)
#
# bench_multipair is left out: it is reproducible but takes over a minute.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
bin=$(cd "${1:-$root/build/bench}" && pwd)
if [ $# -ge 2 ]; then
  mkdir -p "$2"
  out=$(cd "$2" && pwd)
else
  out=$(mktemp -d)
  trap 'rm -rf "$out"' EXIT
fi
cd "$out"

run() {
  echo "==> $*"
  "$bin/$1" "${@:2}" > "$1.log"
}
run bench_faults
run bench_wan --quick --cpu-scale=1 --salts=3 --trace=trace_wan.json
run bench_pipeline --quick --cpu-scale=1 --salts=3 --trace=trace_pipeline.json
run bench_keys --quick --cpu-scale=1 --trace=trace_keys.json
run bench_pingpong --quick --cpu-scale=1 --trace=trace_pingpong.json

csvs=(faults ft_recovery reliability wan_goodput wan_relay attribution_wan
      pipeline_goodput pipeline_sweep attribution_pipeline keys_handshake_loss
      keys_lkh_rekey attribution_keys attribution_pingpong_eth)
failed=0
for name in "${csvs[@]}"; do
  if cmp -s "$name.csv" "$root/results/$name.csv"; then
    echo "same    $name.csv"
  else
    echo "DIFFERS $name.csv"
    diff "$root/results/$name.csv" "$name.csv" | head -n 10 || true
    failed=1
  fi
done
checked="${#csvs[@]} CSVs"
if [ $# -ge 3 ]; then
  ref=$(cd "$3" && pwd)
  for name in wan pipeline keys pingpong; do
    if cmp -s "trace_$name.json" "$ref/trace_$name.json"; then
      echo "same    trace_$name.json"
    else
      echo "DIFFERS trace_$name.json (vs $ref)"
      failed=1
    fi
  done
  checked="$checked, 4 traces"
fi
[ "$failed" -eq 0 ] && echo "oracle: ok ($checked)" || echo "oracle: FAILED"
exit "$failed"
