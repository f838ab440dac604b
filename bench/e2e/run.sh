#!/usr/bin/env bash
# End-to-end benchmark of the golden-free detector (see README.md here).
#
#   bench/e2e/run.sh [--seed N] [--seconds S]
#       Builds the benchmark, runs the four workloads untraced, then the
#       traced pass. Prints every metric as `workload metric value unit`,
#       writes bench/e2e/out/results.json, and exits non-zero when any run
#       failed a correctness check.
#
#   bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       Builds, then one run of one workload; its last stdout line is the
#       JSON result {"correct", "attempted", "failed", "metrics"}.
#
# The default seed is 1; confirm a claimed gain on the held-out seed 2014.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"
out="$here/out"
workloads=(calibrate_paper calibrate_wide_mc score_stream explain_flagged)

jobs="$(nproc 2>/dev/null || echo 2)"
((jobs > 4)) && jobs=4
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$jobs" >&2
bin="$build/htd_e2e"

for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$bin" "$@" --out "$out"
  fi
done

seed=1
seconds=25
while (($#)); do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

mkdir -p "$out"
status=0
runs=()
for trace in 0 1; do
  for w in "${workloads[@]}"; do
    log="$out/$w.trace$trace.log"
    if ! "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" \
        --trace "$trace" --out "$out" >"$log"; then
      echo "run.sh: $w (trace $trace) failed" >&2
      status=1
    fi
    head -n -1 "$log"
    result="$(tail -n 1 "$log")"
    [[ "$result" == "{"* ]] || result=null
    runs+=("{\"workload\": \"$w\", \"trace\": $trace, \"result\": $result}")
  done
done

{
  printf '{"seed": %s, "seconds": %s, "runs": [\n' "$seed" "$seconds"
  sep=""
  for r in "${runs[@]}"; do
    printf '%s  %s' "$sep" "$r"
    sep=$',\n'
  done
  printf '\n]}\n'
} >"$out/results.json"
echo "wrote $out/results.json"
exit "$status"
