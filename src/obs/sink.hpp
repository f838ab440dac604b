#pragma once
/// \file sink.hpp
/// Registry snapshot -> `io::Json` views of the recorded spans and work
/// counters, shared by the run report and the bench artifacts.

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

/// {"work": {name: total, ...}}: the work counters, which are
/// seed-determined and need no normalizing.
[[nodiscard]] io::Json metrics_json(const Registry& registry);

/// Combined snapshot: {"sink", "spans", "spans_dropped", "metrics"}.
/// Inherits the normalized behaviour of spans_json.
[[nodiscard]] io::Json observability_json(const Registry& registry);

}  // namespace htd::obs
