#pragma once
/// \file obs.hpp
/// Pipeline-wide observability: a process-global registry of metrics
/// (counters, gauges, fixed-bucket latency histograms) and completed trace
/// spans, plus pluggable output sinks. Instrumented code talks to
/// `Registry::global()` through `ScopedSpan` (span.hpp) and the counter /
/// gauge / histogram calls below; reporting code snapshots the registry into
/// `io::Json` (sink.hpp) or a full `RunReport` (run_report.hpp).
///
/// The sink is selected programmatically (`Registry::configure`) or through
/// the `HTD_OBS` environment variable:
///
///     HTD_OBS=off    no-op (default) — every call is a single relaxed
///                    atomic load on the hot path
///     HTD_OBS=text   spans and flush() summaries stream to stderr
///     HTD_OBS=json   records accumulate in memory for a RunReport /
///                    BENCH_<name>.json artifact (HTD_OBS_PATH overrides
///                    the default report path of write_default_report())
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
    kInherit,  ///< keep whatever the registry is already configured with
    kOff,      ///< disabled: all instrumentation is a no-op
    kText,     ///< human-readable stream to stderr
    kJson,     ///< accumulate in memory for JSON export
};

/// "off" / "text" / "json" / "inherit".
[[nodiscard]] std::string sink_kind_name(SinkKind kind);

/// Parse an HTD_OBS environment value ("off" / "text" / "json"; empty means
/// "off"). Returns kInherit and fills `*error` with a warning naming the
/// valid values when the value is unrecognized — a misconfigured sink must
/// warn once on stderr instead of silently behaving as "off".
[[nodiscard]] SinkKind sink_kind_from_env(std::string_view value,
                                          std::string* error = nullptr);

/// Parse a boolean observability environment value ("1" = on, "0" or empty
/// = off). Any other value is off, and `*error` is filled with a warning
/// naming the valid values — the same loud-typo contract HTD_OBS gets from
/// sink_kind_from_env. Used for HTD_OBS_NORMALIZE.
[[nodiscard]] bool bool_env_value(std::string_view variable,
                                  std::string_view value,
                                  std::string* error = nullptr);

/// Observability options embeddable in a component config (for example
/// `core::PipelineConfig::obs`). `kInherit` leaves the global registry
/// untouched, so library code never overrides an explicit caller choice.
struct Config {
    SinkKind sink = SinkKind::kInherit;
};

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

/// Aggregated state of one fixed-bucket latency histogram (microseconds).
struct HistogramSnapshot {
    std::vector<std::uint64_t> counts;  ///< one per bucket + final overflow
    std::uint64_t total = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    [[nodiscard]] double mean() const noexcept {
        return total == 0 ? 0.0 : sum / static_cast<double>(total);
    }

    /// Estimated quantile (µs) by linear interpolation inside the 1-2-5
    /// bucket ladder: the first bucket interpolates from 0, the overflow
    /// bucket towards `max`, and the estimate is clamped to [min, max].
    /// 0 for an empty histogram; `q` is clamped to [0, 1].
    [[nodiscard]] double quantile(double q) const noexcept;
};

/// Upper bucket bounds (µs) shared by every latency histogram: a 1-2-5
/// geometric ladder from 1 µs to 10 s. Values above the last bound land in
/// the overflow bucket, so `HistogramSnapshot::counts` has size() + 1
/// entries.
[[nodiscard]] const std::vector<double>& histogram_bucket_bounds();

/// Process-global observability registry.
class Registry {
public:
    /// The process-wide instance. First access applies the HTD_OBS /
    /// HTD_OBS_PATH environment variables.
    static Registry& global();

    /// Swap the sink; `SinkKind::kInherit` is a no-op. Not reset()-ing:
    /// already-recorded data survives a sink change.
    void configure(SinkKind sink);
    void configure(const Config& config) { configure(config.sink); }

    /// True when any sink other than kOff is active.
    [[nodiscard]] bool enabled() const noexcept {
        return enabled_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] SinkKind sink() const noexcept {
        return sink_.load(std::memory_order_relaxed);
    }

    /// Default path for write_default_report(): HTD_OBS_PATH, else
    /// "htd_obs.json".
    [[nodiscard]] std::string json_path() const;

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

    // --- metrics -----------------------------------------------------------

    /// Add `delta` to a monotonic counter (created on first use).
    void counter_add(std::string_view name, double delta = 1.0);

    /// Add `delta` to a work counter. Work counters are a first-class
    /// metric kind counting *algorithmic* work (kernel evaluations, Gram
    /// cells, SMO iterations, Monte Carlo samples) so a perf diff can
    /// distinguish "ran faster" from "did less work". Names follow the
    /// `work.<stage>.<quantity>` convention (enforced by the htd_lint
    /// `work-counter-name` rule in src/).
    void work_add(std::string_view name, double delta);

    /// Set a last-value-wins gauge.
    void gauge_set(std::string_view name, double value);

    /// Record one latency observation (µs) into a fixed-bucket histogram.
    void histogram_record(std::string_view name, double value_us);

    // --- spans (used by ScopedSpan; see span.hpp) --------------------------

    /// Store a completed span and feed its wall time into the
    /// "span.<name>" latency histogram. Spans beyond `kMaxStoredSpans` are
    /// counted in the `obs.spans_dropped` counter instead of stored,
    /// bounding memory under hot loops (the histogram keeps aggregating).
    void span_record(SpanRecord record);

    /// Unique span id (1-based). Cheap; called even before timing starts.
    [[nodiscard]] std::uint64_t next_span_id() noexcept {
        return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    // --- snapshots ---------------------------------------------------------

    [[nodiscard]] std::vector<SpanRecord> spans() const;
    [[nodiscard]] std::map<std::string, double> counters() const;
    [[nodiscard]] std::map<std::string, double> works() const;
    [[nodiscard]] std::map<std::string, double> gauges() const;
    [[nodiscard]] std::map<std::string, HistogramSnapshot> histograms() const;

    /// Current value of one counter (0 when absent).
    [[nodiscard]] double counter_value(std::string_view name) const;

    /// Current value of one work counter (0 when absent).
    [[nodiscard]] double work_value(std::string_view name) const;

    /// Number of spans currently stored.
    [[nodiscard]] std::size_t span_count() const;

    /// Spans rejected by the kMaxStoredSpans cap so far (the
    /// `obs.spans_dropped` counter; 0 when nothing was dropped).
    [[nodiscard]] double spans_dropped() const {
        return counter_value("obs.spans_dropped");
    }

    /// Under the text sink, print a metrics summary table to stderr.
    /// No-op otherwise.
    void flush() const;

    /// Under the JSON sink, write a generic RunReport snapshot to
    /// json_path(). No-op otherwise.
    void write_default_report() const;

    /// Drop all recorded spans and metrics (sink selection is kept).
    void reset();

    /// Stored-span cap (per process, not per run).
    static constexpr std::size_t kMaxStoredSpans = 65536;

private:
    Registry();

    void apply_environment();
    void histogram_record_locked(std::string_view name, double value_us);
    void counter_add_locked(std::string_view name, double delta);

    std::atomic<bool> enabled_{false};
    std::atomic<SinkKind> sink_{SinkKind::kOff};
    std::atomic<bool> trace_normalize_{false};
    std::atomic<std::uint64_t> next_id_{0};

    mutable std::mutex mutex_;  // guards every member below
    std::string json_path_;
    std::string trace_path_;
    std::vector<SpanRecord> spans_;
    std::map<std::string, double, std::less<>> counters_;
    std::map<std::string, double, std::less<>> works_;
    std::map<std::string, double, std::less<>> gauges_;
    std::map<std::string, HistogramSnapshot, std::less<>> histograms_;
};

}  // namespace htd::obs
