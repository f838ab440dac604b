#pragma once
/// \file obs.hpp
/// Pipeline-wide observability: a process-global registry of completed
/// trace spans (with numeric attrs) and `work.*` counters of algorithmic
/// work. Instrumented code talks to `Registry::global()` through
/// `ScopedSpan` (span.hpp) and `work_add`; reporting code snapshots the
/// registry into `io::Json` (sink.hpp), a full `RunReport`
/// (run_report.hpp) or a trace file (trace_export.hpp). A decision's
/// statistics live in its span attrs and in the run report's own sections
/// (calibration, health, quarantine), so the registry records nothing
/// twice.
///
/// The sink is selected programmatically (`Registry::configure`) or through
/// the `HTD_OBS` environment variable:
///
///     HTD_OBS=off    no-op (default) — every call is a single relaxed
///                    atomic load on the hot path
///     HTD_OBS=json   records accumulate in memory for a RunReport /
///                    BENCH_<name>.json artifact / trace file
///
/// All registry operations are thread-safe: the hot-path enabled check is
/// lock-free and the record/aggregate paths take one short `std::mutex`
/// section. The pipeline itself is single-threaded; the lock covers
/// callers that record from their own threads. The `tsan` preset
/// (scripts/check.sh tsan) is the check of that discipline.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace htd::obs {

/// Output sink selection.
enum class SinkKind {
    kOff,      ///< disabled: all instrumentation is a no-op
    kJson,     ///< accumulate in memory for JSON export
};

/// "off" / "json".
[[nodiscard]] std::string sink_kind_name(SinkKind kind);

/// Parse an HTD_OBS environment value ("off" / "json"; empty means
/// "off"). An unrecognized value returns kOff and fills `*error` with a
/// warning naming the valid values — a misconfigured sink must warn once on
/// stderr instead of silently behaving as "off".
[[nodiscard]] SinkKind sink_kind_from_env(std::string_view value,
                                          std::string* error = nullptr);

/// Parse a boolean observability environment value ("1" = on, "0" or empty
/// = off). Any other value is off, and `*error` is filled with a warning
/// naming the valid values — the same loud-typo contract HTD_OBS gets from
/// sink_kind_from_env. Used for HTD_OBS_NORMALIZE.
[[nodiscard]] bool bool_env_value(std::string_view variable,
                                  std::string_view value,
                                  std::string* error = nullptr);

/// One completed trace span.
struct SpanRecord {
    std::uint64_t id = 0;      ///< 1-based, unique per process
    std::uint64_t parent = 0;  ///< 0 = root span of its thread
    std::uint32_t depth = 0;   ///< nesting depth (root = 0)
    std::uint32_t thread = 0;  ///< 1-based registration-order thread index
    std::string name;
    std::int64_t start_wall_ns = 0;  ///< steady-clock start, ns since registry init
    std::int64_t wall_ns = 0;        ///< wall-clock duration
    std::int64_t cpu_ns = 0;         ///< thread CPU time consumed
    /// Numeric attributes attached via ScopedSpan::attr (insertion order).
    std::vector<std::pair<std::string, double>> attrs;
};

/// Process-global observability registry.
class Registry {
public:
    /// The process-wide instance. First access applies the HTD_OBS,
    /// HTD_OBS_TRACE and HTD_OBS_NORMALIZE environment variables.
    static Registry& global();

    /// Swap the sink. Not reset()-ing: already-recorded data survives a
    /// sink change.
    void configure(SinkKind sink);

    /// True when any sink other than kOff is active.
    [[nodiscard]] bool enabled() const noexcept {
        return enabled_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] SinkKind sink() const noexcept {
        return sink_.load(std::memory_order_relaxed);
    }

    /// Trace-event JSON destination (empty = no trace requested). First
    /// access applies the HTD_OBS_TRACE environment variable.
    [[nodiscard]] std::string trace_path() const;
    void set_trace_path(std::string path);

    /// True when HTD_OBS_NORMALIZE requested deterministic
    /// (structure-derived) trace timestamps; see trace_export.hpp.
    [[nodiscard]] bool trace_normalize() const noexcept {
        return trace_normalize_.load(std::memory_order_relaxed);
    }
    void set_trace_normalize(bool normalize) noexcept {
        trace_normalize_.store(normalize, std::memory_order_relaxed);
    }

    /// Small, stable, 1-based index of the calling thread, assigned in
    /// first-use order. SpanRecord::thread carries it so traces group
    /// spans per thread deterministically (no OS thread-id churn).
    [[nodiscard]] static std::uint32_t current_thread_index() noexcept;

    // --- work counters -----------------------------------------------------

    /// Add `delta` to a work counter (created on first use). Work counters
    /// count *algorithmic* work (kernel evaluations, Gram cells, SMO
    /// iterations, Monte Carlo samples) so a perf diff can distinguish
    /// "ran faster" from "did less work". Names follow the
    /// `work.<stage>.<quantity>` convention (enforced by the htd_lint
    /// `work-counter-name` rule in src/).
    void work_add(std::string_view name, double delta);

    // --- spans (used by ScopedSpan; see span.hpp) --------------------------

    /// Store a completed span. Spans beyond `kMaxStoredSpans` are counted
    /// in spans_dropped() instead of stored, bounding memory under hot
    /// loops.
    void span_record(SpanRecord record);

    /// Unique span id (1-based). Cheap; called even before timing starts.
    [[nodiscard]] std::uint64_t next_span_id() noexcept {
        return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    // --- snapshots ---------------------------------------------------------

    [[nodiscard]] std::vector<SpanRecord> spans() const;
    [[nodiscard]] std::map<std::string, double> works() const;

    /// Current value of one work counter (0 when absent).
    [[nodiscard]] double work_value(std::string_view name) const;

    /// Number of spans currently stored.
    [[nodiscard]] std::size_t span_count() const;

    /// Spans rejected by the kMaxStoredSpans cap since the last reset()
    /// (0 when nothing was dropped).
    [[nodiscard]] double spans_dropped() const;

    /// Drop all recorded spans and work counters and zero spans_dropped()
    /// (sink selection is kept).
    void reset();

    /// Stored-span cap (per process, not per run).
    static constexpr std::size_t kMaxStoredSpans = 65536;

private:
    Registry();

    void apply_environment();

    std::atomic<bool> enabled_{false};
    std::atomic<SinkKind> sink_{SinkKind::kOff};
    std::atomic<bool> trace_normalize_{false};
    std::atomic<std::uint64_t> next_id_{0};

    mutable std::mutex mutex_;  // guards every member below
    std::string trace_path_;
    std::vector<SpanRecord> spans_;
    std::uint64_t spans_dropped_ = 0;
    std::map<std::string, double, std::less<>> works_;
};

}  // namespace htd::obs
