#pragma once
/// \file profile.hpp
/// htd_profile core: load execution profiles from htd trace-event JSON
/// (src/obs/trace_export.hpp), `htd.run_report.*` documents, or
/// BENCH_*.json artifacts, validate traces, and diff two profiles into a
/// per-stage wall/CPU/work attribution ranked by contribution. Lives in a
/// static library (htd_profile_lib) so tests/test_profile.cpp can exercise
/// it without shelling out to the binary — the same split htd_lint uses.
///
/// The three accepted document shapes, auto-detected:
///  - trace:      {"traceEvents": [...], "otherData": {"schema":
///                "htd.trace.v1", "work": {...}}} — stages aggregate the
///                "X" events per span name, work comes from otherData.
///  - run_report: {"observability": {"spans": [...], "metrics": {"work":
///                {...}}}} — stages aggregate the recorded spans.
///  - bench:      a run_report that also carries "results" (google-benchmark
///                rows; each becomes a stage at its per-iteration time) and
///                optionally "work_profile" ("<Bench>/<arg>:work.<x>.<y>"
///                per-iteration work counters, merged into the work map).

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace htd::profile {

/// Trace validation outcome (the `htd_profile --validate` mode, run by
/// scripts/check.sh --determinism).
struct TraceCheck {
    bool ok = false;
    std::vector<std::string> errors;       ///< empty iff ok
    std::size_t span_events = 0;           ///< "X" events seen
    std::vector<std::string> span_names;   ///< distinct span names, sorted
    std::map<std::string, double> work;    ///< otherData.work counters
};

/// Validate `doc` against the htd.trace.v1 shape: traceEvents array,
/// schema tag, complete events with pid/tid/ts/dur >= 0 and args carrying
/// id/parent/depth, parents resolving to spans on the same thread.
[[nodiscard]] TraceCheck check_trace(const io::Json& doc);

/// JSON rendering of a TraceCheck (schema htd.profile.check.v1).
[[nodiscard]] io::Json check_json(const TraceCheck& check);

/// Aggregated cost of one stage (span name or bench row).
struct StageStat {
    double wall_us = 0.0;
    double cpu_us = 0.0;   ///< 0 for normalized traces (cpu_ns is dropped)
    double count = 0.0;    ///< spans aggregated / bench iterations
};

/// One loaded profile document.
struct ProfileData {
    std::string kind;                        ///< "trace" / "run_report" / "bench"
    std::map<std::string, StageStat> stages;
    std::map<std::string, double> work;
};

/// Load a profile from any accepted shape; throws std::invalid_argument
/// when the document matches none of them.
[[nodiscard]] ProfileData load_profile(const io::Json& doc);

/// One ranked attribution row of a profile diff.
struct DiffEntry {
    std::string name;
    double a = 0.0;
    double b = 0.0;
    double delta = 0.0;  ///< b - a
    double share = 0.0;  ///< fraction of the total contribution, in [0, 1]
};

/// Per-stage and per-work-counter diff, each ranked most-contributing
/// first. Contribution is |delta| when anything moved, falling back to
/// magnitude (max(|a|, |b|)) so diffing two identical runs still ranks the
/// dominant stages/counters instead of printing an all-zero table.
struct ProfileDiff {
    std::vector<DiffEntry> stages;  ///< wall-time attribution (µs)
    std::vector<DiffEntry> work;    ///< work-counter attribution
};

[[nodiscard]] ProfileDiff diff_profiles(const ProfileData& a, const ProfileData& b);

/// Human-readable rendering (two ranked tables).
[[nodiscard]] std::string diff_text(const ProfileDiff& diff, std::size_t top_n = 0);

/// JSON rendering (schema htd.profile.diff.v1).
[[nodiscard]] io::Json diff_json(const ProfileDiff& diff);

}  // namespace htd::profile
