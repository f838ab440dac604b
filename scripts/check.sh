#!/usr/bin/env bash
# Tier-1 verification: configure + build a preset and run the full ctest
# suite. This is the gate every change must keep green. With no argument
# both default gates run: the release preset first, then the same suite
# under ASan+UBSan (the sanitize preset), so memory and UB bugs cannot
# hide behind a green optimized build.
#
# Gate matrix (see DESIGN.md §11 for what each prong catches):
#
#   scripts/check.sh               # release, then sanitize
#   scripts/check.sh release       # just the release gate (build-release/)
#   scripts/check.sh sanitize      # just the ASan+UBSan gate (build-sanitize/)
#   scripts/check.sh tsan          # ThreadSanitizer gate (build-tsan/):
#                                  # the full suite, including the
#                                  # test_obs_concurrency stress tests, under
#                                  # -fsanitize=thread
#   scripts/check.sh --analyze     # static-analysis gate:
#                                  #   1. htd_lint project invariants
#                                  #      (tools/htd_lint, committed allowlist)
#                                  #   2. scripts/format.sh --check
#                                  #   3. clang-tidy over the tidy preset's
#                                  #      compile_commands.json (when
#                                  #      clang-tidy is installed; skipped
#                                  #      with a notice otherwise so the gate
#                                  #      is deterministic on GCC-only boxes)
#   scripts/check.sh --bench-gate  # perf-regression gate: rerun the release
#                                  # benches and diff the fresh BENCH_*.json
#                                  # against bench/baselines/ via
#                                  # bench_compare
#   scripts/check.sh --determinism # determinism gate (DESIGN.md §16): every
#                                  # same-seed byte-identity contract in one
#                                  # prong, plus structural checks on the
#                                  # same outputs. Runs the quickstart twice
#                                  # under HTD_OBS_NORMALIZE=1 and cmp's the
#                                  # run report, trace and stdout, cmp's the
#                                  # report against the committed
#                                  # quickstart_run_report.json; validates
#                                  # the trace with htd_profile (five stage
#                                  # spans, nonzero work counters). Then runs
#                                  # the htd_score calibrate -> score
#                                  # sequence twice with --journal and cmp's
#                                  # the boundary artifact, fingerprints CSV,
#                                  # both B-score reports, the score-time
#                                  # --explain records and the journal;
#                                  # requires score to reproduce the
#                                  # calibrate-time B-scores byte for byte,
#                                  # the journal to validate with htd_explain,
#                                  # a truncated artifact to be rejected
#                                  # with exit code 2, and a boundary
#                                  # section swap to be scored around with
#                                  # both rejections reported (and refused
#                                  # with exit code 2 under --strict)
#
# All presets build with HTD_WARNINGS_AS_ERRORS=ON: a new warning anywhere
# in src/, tools/, bench/ or tests/ fails the build rather than scrolling
# by. The bench gate only makes sense on a quiet machine; see
# bench/baselines/README.md for how baselines are blessed.
set -euo pipefail
cd "$(dirname "$0")/.."

run_preset() {
    local preset="$1"
    echo "== check.sh: preset '$preset' =="
    cmake --preset "$preset"
    cmake --build --preset "$preset" -j "$(nproc)"
    ctest --preset "$preset"
}

run_bench_gate() {
    echo "== check.sh: bench gate (release benches vs bench/baselines/) =="
    cmake --preset release
    cmake --build --preset release -j "$(nproc)" \
        --target bench_micro bench_roc bench_fault_sweep bench_drift_sweep \
                 bench_journal bench_seed_robustness bench_compare
    local out
    out="$(mktemp -d)"
    # Removed on every exit, including a set -e abort or a gate failure.
    trap "rm -rf '$out'" EXIT
    # Each bench writes BENCH_<name>.json into the CWD. bench_micro runs
    # with its default min-time so the candidate methodology matches the
    # blessed baseline's.
    (cd "$out" && "$OLDPWD"/build-release/bench/bench_micro)
    (cd "$out" && "$OLDPWD"/build-release/bench/bench_roc)
    (cd "$out" && "$OLDPWD"/build-release/bench/bench_fault_sweep)
    (cd "$out" && "$OLDPWD"/build-release/bench/bench_drift_sweep)
    (cd "$out" && "$OLDPWD"/build-release/bench/bench_journal)
    (cd "$out" && "$OLDPWD"/build-release/bench/bench_seed_robustness)
    ./build-release/tools/bench_compare --candidate-dir "$out"
}

run_determinism() {
    echo "== check.sh: determinism gate (same-seed byte-identity) =="
    cmake --preset release
    cmake --build --preset release -j "$(nproc)" \
        --target quickstart htd_score htd_profile htd_explain
    local out
    out="$(mktemp -d)"
    # Removed on every exit, including each early `return 1` and set -e abort.
    trap "rm -rf '$out'" EXIT
    local run f
    # Everything below runs under HTD_OBS_NORMALIZE=1: normalized traces,
    # run-report observability and journal timestamps.
    export HTD_OBS_NORMALIZE=1
    # Prong 1: the quickstart, twice, with everything it can serialize made
    # deterministic — JSON sink plus normalized trace and run-report
    # observability. The whole run report, the trace and stdout must be
    # byte-identical: any clock, iteration-order or RNG leak anywhere in
    # the pipeline or the obs layer shows up as a cmp diff here. This is
    # the gate DESIGN.md §16 pairs with htd_lint's determinism passes: the
    # lint rules catch the patterns statically, this catches whatever slips
    # through at runtime.
    for run in a b; do
        mkdir "$out/$run"
        (cd "$out/$run" && HTD_OBS=json HTD_OBS_TRACE=trace.json \
            "$OLDPWD"/build-release/examples/quickstart > stdout.txt)
    done
    for f in quickstart_run_report.json trace.json stdout.txt; do
        if ! cmp "$out/a/$f" "$out/b/$f"; then
            echo "check.sh: determinism: same-seed quickstart $f differs" >&2
            return 1
        fi
    done
    # The committed exemplar is this run's report. A change that moves it
    # on purpose regenerates it with the environment above.
    if ! cmp "$out/a/quickstart_run_report.json" quickstart_run_report.json; then
        echo "check.sh: determinism: quickstart_run_report.json differs from" \
             "the committed copy" >&2
        return 1
    fi
    # The trace must also validate (htd_profile --validate exits nonzero on
    # a malformed one, which fails the assignment under set -e) and carry
    # the five pipeline stage spans and nonzero work counters.
    local check stage
    check="$(./build-release/tools/htd_profile/htd_profile --validate \
        "$out/a/trace.json" --json)"
    for stage in pipeline.monte_carlo mars.bank_fit kmm.calibrate \
                 kde.adaptive_sample_n svm.fit; do
        if ! grep -qF "\"$stage\"" <<< "$check"; then
            echo "check.sh: determinism: stage span '$stage' missing" >&2
            return 1
        fi
    done
    if ! grep -qE '"work\.[a-z0-9_]+\.[a-z0-9_]+": [1-9]' <<< "$check"; then
        echo "check.sh: determinism: no nonzero work counters in trace" >&2
        return 1
    fi
    # Prong 2: two same-seed calibrate -> score sequences with --journal
    # and normalized events (ts_ns = seq). The boundary artifact, the
    # measured fingerprints, both B-score reports, the htd.explain.v1
    # records of every chip and the htd.events.v1 journal carry no
    # wall-clock state, so all of them must match byte-for-byte across runs
    # (DESIGN.md §15 for the explain and journal contracts).
    # Score may exit 1 (devices flagged) at this tiny calibration budget;
    # that is a verdict, not an error.
    local score=./build-release/tools/htd_score/htd_score
    local explain=./build-release/tools/htd_explain/htd_explain
    local rc
    for run in a b; do
        "$score" calibrate \
            --artifact "$out/boundary_$run.json" \
            --fingerprints "$out/fingerprints_$run.csv" \
            --bscores "$out/ref_$run.json" \
            --chips 8 --mc 40 --synthetic 5000 \
            --journal "$out/journal_$run.jsonl"
        rc=0
        "$score" score \
            --artifact "$out/boundary_$run.json" \
            --fingerprints "$out/fingerprints_$run.csv" \
            --bscores "$out/scored_$run.json" \
            --explain "$out/explain_$run.json" \
            --journal "$out/journal_$run.jsonl" || rc=$?
        if [[ "$rc" != 0 && "$rc" != 1 ]]; then
            echo "check.sh: determinism: score exited $rc, want 0 or 1" >&2
            return 1
        fi
    done
    for f in boundary.json fingerprints.csv ref.json scored.json \
             explain.json journal.jsonl; do
        if ! cmp "$out/${f%.*}_a.${f##*.}" "$out/${f%.*}_b.${f##*.}"; then
            echo "check.sh: determinism: same-seed $f artifacts differ" >&2
            return 1
        fi
    done
    # Scoring from the artifact alone reproduces the calibrate-time
    # B-scores byte for byte (the bitwise-parity contract, DESIGN.md §14).
    if ! cmp "$out/ref_a.json" "$out/scored_a.json"; then
        echo "check.sh: determinism: score B-scores differ from calibrate's" >&2
        return 1
    fi
    # The journal validates across the calibrate and score appends (schema,
    # known kinds, strictly increasing seq), and one chip's forensic
    # trail surfaces its chip_scored event.
    "$explain" validate "$out/journal_a.jsonl"
    if ! "$explain" query "$out/journal_a.jsonl" --chip 0 \
            --kind chip_scored | grep -q chip_scored; then
        echo "check.sh: determinism: no chip_scored event for chip 0" >&2
        return 1
    fi
    # A corrupted artifact (seeded truncation: a strict prefix, so the
    # parse must fail) is rejected with the typed exit code 2.
    cp "$out/boundary_a.json" "$out/truncated.json"
    "$score" inject --artifact "$out/truncated.json" --fault truncate --seed 7
    rc=0
    "$score" score --artifact "$out/truncated.json" \
        --fingerprints "$out/fingerprints_a.csv" \
        --bscores "$out/rejected.json" || rc=$?
    if [[ "$rc" != 2 ]]; then
        echo "check.sh: determinism: corrupt artifact exited $rc, want 2" >&2
        return 1
    fi
    # The tolerant path: a swap of two boundary.* payloads fails both
    # name-bound CRCs. Which sections a seed swaps depends on the artifact
    # layout, so the first seed in 1..32 that swaps two boundary sections
    # is used, each on a fresh copy. A tolerant score keeps scoring on the
    # other boundaries and warns once per rejected section; --strict
    # refuses the artifact with exit code 2.
    local swap="" seed
    for seed in $(seq 1 32); do
        cp "$out/boundary_a.json" "$out/swapped.json"
        swap=$("$score" inject --artifact "$out/swapped.json" \
            --fault section_swap --seed "$seed")
        if grep -qE 'section_swap: boundary\.B[1-5] <-> boundary\.B[1-5]' <<< "$swap"; then
            break
        fi
        swap=""
    done
    if [[ -z "$swap" ]]; then
        echo "check.sh: determinism: no seed in 1..32 swaps two boundary sections" >&2
        return 1
    fi
    echo "check.sh: determinism: section_swap seed $seed: $swap"
    rc=0
    "$score" score --artifact "$out/swapped.json" \
        --fingerprints "$out/fingerprints_a.csv" \
        --bscores "$out/swapped_scores.json" 2> "$out/swapped.err" || rc=$?
    if [[ "$rc" != 0 && "$rc" != 1 ]]; then
        echo "check.sh: determinism: swapped artifact exited $rc, want 0 or 1" >&2
        return 1
    fi
    if [[ "$(grep -c 'failed artifact validation' "$out/swapped.err")" != 2 ]]; then
        echo "check.sh: determinism: swapped artifact did not report both rejected sections" >&2
        cat "$out/swapped.err" >&2
        return 1
    fi
    rc=0
    "$score" score --strict --artifact "$out/swapped.json" \
        --fingerprints "$out/fingerprints_a.csv" \
        --bscores "$out/swapped_strict.json" || rc=$?
    if [[ "$rc" != 2 ]]; then
        echo "check.sh: determinism: strict score of swapped artifact exited $rc, want 2" >&2
        return 1
    fi
    echo "== check.sh: determinism gate OK =="
}

run_analyze() {
    echo "== check.sh: static-analysis gate =="

    # 1. htd_lint: project invariants clang-tidy cannot express (seeded
    #    RNGs, obs-only output, centralized NaN screening, header hygiene,
    #    checked stream opens, module layering + include cycles,
    #    [[nodiscard]] coverage, determinism contracts; must-use result
    #    discards are compile errors under -Werror). Built through the
    #    release preset so the gate shares
    #    its build tree; the scan itself is a fraction of a second.
    echo "-- htd_lint --"
    cmake --preset release > /dev/null
    cmake --build --preset release -j "$(nproc)" --target htd_lint
    ./build-release/tools/htd_lint/htd_lint --root .

    # 2. Format verification (portable whitespace checks always; the
    #    clang-format pass where the tool exists).
    echo "-- format --"
    scripts/format.sh --check

    # 3. clang-tidy over the tidy preset's compile_commands.json. The
    #    curated .clang-tidy runs everything as errors; without clang-tidy
    #    installed this prong is skipped loudly (the htd_lint + warning-
    #    as-error gates above still hold).
    echo "-- clang-tidy --"
    cmake --preset tidy > /dev/null
    if command -v clang-tidy > /dev/null 2>&1; then
        local sources
        mapfile -t sources < <(git ls-files 'src/*.cpp' 'tools/*.cpp' \
            'bench/*.cpp' 'tests/*.cpp')
        if command -v run-clang-tidy > /dev/null 2>&1; then
            run-clang-tidy -p build-tidy -quiet "${sources[@]}"
        else
            clang-tidy -p build-tidy --quiet "${sources[@]}"
        fi
    else
        echo "check.sh: clang-tidy not found; skipping (htd_lint, format and"
        echo "          warnings-as-errors gates above still ran)"
    fi

    echo "== check.sh: static-analysis gate OK =="
}

if [[ $# -ge 1 && "$1" == "--bench-gate" ]]; then
    run_bench_gate
elif [[ $# -ge 1 && "$1" == "--analyze" ]]; then
    run_analyze
elif [[ $# -ge 1 && "$1" == "--determinism" ]]; then
    run_determinism
elif [[ $# -ge 1 ]]; then
    run_preset "$1"
else
    run_preset release
    run_preset sanitize
fi
