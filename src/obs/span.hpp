#pragma once
/// \file span.hpp
/// RAII trace spans. A `ScopedSpan` measures the wall-clock and thread-CPU
/// time between its construction and destruction and records the result in
/// `Registry::global()`. Spans nest through a thread-local stack: a span
/// opened while another is alive on the same thread becomes its child
/// (SpanRecord::parent / depth), so stage timings decompose into their
/// sub-steps.
///
///     void run_stage() {
///         obs::ScopedSpan span("pipeline.stage1");
///         span.attr("samples", n);
///         ...  // child ScopedSpans opened here nest under stage1
///     }
///
/// When the registry is disabled the constructor is a single relaxed atomic
/// load and everything else is skipped — cheap enough to leave in hot paths.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace htd::obs {

class ScopedSpan {
public:
    /// Opens the span (no-op when the registry is disabled).
    explicit ScopedSpan(std::string_view name);

    /// Closes the span and records it.
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    ScopedSpan(ScopedSpan&&) = delete;
    ScopedSpan& operator=(ScopedSpan&&) = delete;

    /// Attach a numeric attribute to the record (no-op when disabled).
    void attr(std::string_view key, double value);

    /// True when the span is actually recording.
    [[nodiscard]] bool active() const noexcept { return active_; }

private:
    bool active_ = false;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint32_t depth_ = 0;
    std::uint32_t thread_ = 0;
    std::int64_t start_wall_ns_ = 0;
    std::int64_t start_cpu_ns_ = 0;
    std::string name_;
    std::vector<std::pair<std::string, double>> attrs_;
};

/// Id of the innermost open ScopedSpan on the calling thread — 0 when no
/// span is open (or the registry is disabled, which leaves spans inactive).
/// Journal records (journal.hpp) carry this id so `htd.events.v1` lines
/// cross-reference the `htd.trace.v1` span they happened inside.
[[nodiscard]] std::uint64_t current_span_id() noexcept;

/// Monotonic wall clock, ns since an arbitrary process-local epoch.
[[nodiscard]] std::int64_t wall_clock_ns() noexcept;

/// CPU time consumed by the calling thread, ns (falls back to process CPU
/// time on platforms without a thread clock).
[[nodiscard]] std::int64_t thread_cpu_ns() noexcept;

}  // namespace htd::obs
