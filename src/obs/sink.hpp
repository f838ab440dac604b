#pragma once
/// \file sink.hpp
/// Registry snapshot -> output conversions shared by the text and JSON
/// sinks: `io::Json` views of the recorded spans and metrics, and the
/// one-line span rendering the text sink streams to stderr.

#include <string>

#include "io/json.hpp"
#include "obs/obs.hpp"

namespace htd::obs {

/// Flat array of the recorded spans in completion order. Each element
/// carries id / parent / depth / name / start_wall_ns / wall_ns / cpu_ns
/// and an "attrs" object. When the registry runs normalized
/// (HTD_OBS_NORMALIZE=1) the spans are ordered by id and the
/// clock-derived fields switch to trace_export.hpp's structural Euler-tour
/// ticks (start_wall_ns = enter tick, wall_ns = exit - enter, cpu_ns = 0)
/// — same key shape, byte-identical across same-seed
/// runs, which is what lets scripts/check.sh --determinism cmp whole run
/// reports.
[[nodiscard]] io::Json spans_json(const Registry& registry);

/// Object with "counters", "gauges" and "histograms" members. Histograms
/// serialize their bucket counts against the shared
/// `histogram_bucket_bounds()` ladder plus total/sum/mean/min/max.
/// Normalized mode keeps the structural fields (unit, total) and zeroes
/// every timing-derived statistic and bucket so the shape survives while
/// the bytes become deterministic.
[[nodiscard]] io::Json metrics_json(const Registry& registry);

/// Combined snapshot: {"spans": ..., "metrics": ...}. Inherits the
/// normalized behaviour of both pieces above.
[[nodiscard]] io::Json observability_json(const Registry& registry);

/// One-line text rendering of a completed span, e.g.
/// "[obs]   pipeline.mars_fit  wall 12.3 ms  cpu 12.1 ms  (outputs=6)".
/// Indented two spaces per nesting level.
[[nodiscard]] std::string span_text_line(const SpanRecord& record);

}  // namespace htd::obs
