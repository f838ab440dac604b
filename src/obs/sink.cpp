#include "obs/sink.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "obs/trace_export.hpp"

namespace htd::obs {

io::Json spans_json(const Registry& registry) {
    // Normalized mode (HTD_OBS_NORMALIZE=1) replaces every
    // clock-derived field with structural Euler-tour ticks, exactly like
    // the trace export: two same-seed runs then serialize byte-identical
    // spans, which is what lets scripts/check.sh --determinism cmp whole
    // run reports. The shape is unchanged so every reader keeps parsing.
    const bool normalize = registry.trace_normalize();
    std::vector<SpanRecord> spans = registry.spans();
    std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> ticks;
    if (normalize) {
        std::sort(spans.begin(), spans.end(),
                  [](const SpanRecord& a, const SpanRecord& b) {
                      return a.id < b.id;
                  });
        ticks = span_euler_ticks(spans);
    }
    io::Json out = io::Json::array();
    for (const SpanRecord& s : spans) {
        io::Json rec = io::Json::object();
        rec.set("id", static_cast<double>(s.id));
        rec.set("parent", static_cast<double>(s.parent));
        rec.set("depth", static_cast<double>(s.depth));
        rec.set("thread", static_cast<double>(s.thread));
        rec.set("name", s.name);
        if (normalize) {
            const auto& [enter, exit] = ticks.at(s.id);
            rec.set("start_wall_ns", static_cast<double>(enter));
            rec.set("wall_ns", static_cast<double>(exit - enter));
            rec.set("cpu_ns", 0.0);
        } else {
            rec.set("start_wall_ns", static_cast<double>(s.start_wall_ns));
            rec.set("wall_ns", static_cast<double>(s.wall_ns));
            rec.set("cpu_ns", static_cast<double>(s.cpu_ns));
        }
        if (!s.attrs.empty()) {
            io::Json attrs = io::Json::object();
            for (const auto& [key, value] : s.attrs) attrs.set(key, value);
            rec.set("attrs", std::move(attrs));
        }
        out.push_back(std::move(rec));
    }
    return out;
}

io::Json metrics_json(const Registry& registry) {
    io::Json work = io::Json::object();
    for (const auto& [name, value] : registry.works()) work.set(name, value);
    io::Json out = io::Json::object();
    out.set("work", std::move(work));
    return out;
}

io::Json observability_json(const Registry& registry) {
    io::Json out = io::Json::object();
    out.set("sink", sink_kind_name(registry.sink()));
    out.set("spans", spans_json(registry));
    out.set("spans_dropped", registry.spans_dropped());
    out.set("metrics", metrics_json(registry));
    return out;
}

}  // namespace htd::obs
