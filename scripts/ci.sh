#!/usr/bin/env bash
# One-shot CI entrypoint: every gate a change must pass, in dependency
# order, with a machine-readable summary at the end.
#
#   scripts/ci.sh [--summary PATH] [--skip-bench-gate]
#
# Stages (each maps onto a scripts/check.sh prong — see that file and
# DESIGN.md §11 for what every prong catches):
#
#   release     configure + build the release preset, full ctest suite
#   sanitize    the same suite under ASan+UBSan
#   analyze     scripts/check.sh --analyze (htd_lint invariants + layering,
#               format check, clang-tidy where installed)
#   determinism scripts/check.sh --determinism (every same-seed
#               byte-identity contract in one gate, DESIGN.md §16:
#               quickstart run report + normalized trace + stdout, and the
#               calibrate -> score artifact/fingerprints/B-score/journal
#               set, each cmp'd across two runs; plus trace validation,
#               score-vs-calibrate B-score parity, journal validation and
#               the typed rejection of a truncated artifact)
#   bench-gate  scripts/check.sh --bench-gate (perf/quality regression
#               diff against bench/baselines/; skippable — latency
#               baselines only gate on comparable, quiet hardware)
#
# Every stage runs even when an earlier one fails, so one CI round reports
# every broken gate instead of the first. Exit is nonzero when any stage
# failed. The summary is a JSON object on stdout (and to --summary PATH):
#
#   {"tool": "ci", "ok": false,
#    "stages": [{"name": "release", "ok": true, "seconds": 123}, ...]}
set -uo pipefail
cd "$(dirname "$0")/.."

summary_path=""
skip_bench=0
for arg in "$@"; do
    case "$arg" in
        --summary)
            summary_path="__NEXT__"
            ;;
        --skip-bench-gate)
            skip_bench=1
            ;;
        --help|-h)
            sed -n '2,30p' "$0" | sed 's/^# \{0,1\}//'
            exit 0
            ;;
        *)
            if [[ "$summary_path" == "__NEXT__" ]]; then
                summary_path="$arg"
            else
                echo "ci.sh: unknown argument '$arg'" >&2
                exit 2
            fi
            ;;
    esac
done
if [[ "$summary_path" == "__NEXT__" ]]; then
    echo "ci.sh: --summary needs a path" >&2
    exit 2
fi

stage_names=()
stage_oks=()
stage_secs=()
overall_ok=1

run_stage() {
    local name="$1"
    shift
    echo "=== ci.sh: stage '$name' ==="
    local start end ok
    start=$(date +%s)
    if "$@"; then
        ok=1
    else
        ok=0
        overall_ok=0
    fi
    end=$(date +%s)
    stage_names+=("$name")
    stage_oks+=("$ok")
    stage_secs+=($((end - start)))
    if [[ "$ok" == 1 ]]; then
        echo "=== ci.sh: stage '$name' OK ($((end - start))s) ==="
    else
        echo "=== ci.sh: stage '$name' FAILED ($((end - start))s) ===" >&2
    fi
}

run_stage release scripts/check.sh release
run_stage sanitize scripts/check.sh sanitize
run_stage analyze scripts/check.sh --analyze
run_stage determinism scripts/check.sh --determinism
if [[ "$skip_bench" == 0 ]]; then
    # The latency baselines only hold on a quiet machine, and this stage
    # starts seconds after the build+test stages saturated every core —
    # let the CPU (frequency/thermal state) and page cache settle first.
    echo "=== ci.sh: settling 60s before 'bench-gate' ==="
    sleep 60
    run_stage bench-gate scripts/check.sh --bench-gate
else
    echo "=== ci.sh: stage 'bench-gate' skipped (--skip-bench-gate) ==="
fi

summary="{\"tool\": \"ci\", \"ok\": $( ((overall_ok)) && echo true || echo false ), \"stages\": ["
for i in "${!stage_names[@]}"; do
    [[ $i -gt 0 ]] && summary+=", "
    summary+="{\"name\": \"${stage_names[$i]}\", "
    summary+="\"ok\": $( [[ "${stage_oks[$i]}" == 1 ]] && echo true || echo false ), "
    summary+="\"seconds\": ${stage_secs[$i]}}"
done
summary+="]}"

echo "$summary"
if [[ -n "$summary_path" ]]; then
    echo "$summary" > "$summary_path"
fi
((overall_ok)) || exit 1
exit 0
