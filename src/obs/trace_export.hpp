#pragma once
/// \file trace_export.hpp
/// Chrome/Perfetto trace-event export of the recorded span tree. The
/// emitted document loads directly into `chrome://tracing` or
/// https://ui.perfetto.dev and follows the trace-event JSON object format:
///
///     {
///       "displayTimeUnit": "ns",
///       "otherData": {"schema": "htd.trace.v1", "normalized": false},
///       "traceEvents": [
///         {"ph": "M", "name": "process_name", ...},
///         {"ph": "M", "name": "thread_name", "tid": 1, ...},
///         {"ph": "X", "name": "pipeline.monte_carlo", "cat": "htd",
///          "pid": 1, "tid": 1, "ts": 12.5, "dur": 3401.2,
///          "args": {"id": 4, "parent": 1, "depth": 1, ...attrs}}
///       ]
///     }
///
/// Every span becomes one complete ("X") event with ts/dur in
/// microseconds; `tid` is the registry's stable 1-based thread index, so
/// worker-thread spans land on their own tracks and nest by timestamp.
/// Events are ordered deterministically (metadata by tid, then spans by
/// span id) regardless of completion order.
///
/// Two timestamp modes:
///  - raw (default): ts = span start relative to the earliest recorded
///    span, dur = measured wall time; args carry cpu_ns. What you want for
///    actual profiling.
///  - normalized (HTD_OBS_NORMALIZE=1): timestamps are derived from
///    the span *structure* instead of the clock — a per-thread Euler-tour
///    tick counter assigns ts = enter tick and dur = exit - enter, and the
///    nondeterministic cpu_ns field is dropped.
///    Two same-seed runs then produce byte-identical traces, which is what
///    lets CI diff trace artifacts and tests assert on exact bytes.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "io/json.hpp"
#include "obs/obs.hpp"

namespace htd::obs {

/// Schema tag stamped into otherData.schema.
inline constexpr const char* kTraceSchema = "htd.trace.v1";

/// Euler-tour tick assignment shared by every normalized export (traces
/// here, run-report spans in sink.cpp): span id -> {enter tick, exit
/// tick}. Per thread, the span tree is walked depth-first with siblings in
/// id order, so the ticks are a pure function of the recorded structure —
/// byte-identical across same-seed runs regardless of wall time.
[[nodiscard]] std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>>
span_euler_ticks(const std::vector<SpanRecord>& spans);

/// Build the trace-event document from the registry's recorded spans.
[[nodiscard]] io::Json trace_events_json(const Registry& registry,
                                         bool normalize = false);

/// Serialize trace_events_json() to `path` (pretty-printed, deterministic
/// key order). Throws std::runtime_error on IO failure.
void write_trace(const std::string& path, const Registry& registry,
                 bool normalize = false);

/// Write the trace to `registry.trace_path()` honouring
/// `registry.trace_normalize()`. Returns the path written, or an empty
/// string when no trace was requested (HTD_OBS_TRACE unset). Call sites:
/// quickstart and write_bench_report(), after the instrumented work.
[[nodiscard]] std::string write_trace_if_configured(
    const Registry& registry = Registry::global());

}  // namespace htd::obs
