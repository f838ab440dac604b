#include "obs/sink.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "obs/trace_export.hpp"

namespace htd::obs {

namespace {

/// "12.3 ms" style rendering for nanosecond durations.
std::string fmt_duration_ns(std::int64_t ns) {
    char buf[32];
    const double v = static_cast<double>(ns);
    if (ns < 10'000) {
        std::snprintf(buf, sizeof buf, "%" PRId64 " ns", ns);
    } else if (ns < 10'000'000) {
        std::snprintf(buf, sizeof buf, "%.1f us", v / 1e3);
    } else if (ns < 10'000'000'000) {
        std::snprintf(buf, sizeof buf, "%.1f ms", v / 1e6);
    } else {
        std::snprintf(buf, sizeof buf, "%.2f s", v / 1e9);
    }
    return buf;
}

std::string fmt_compact(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

}  // namespace

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
    io::Json out = io::Json::object();

    io::Json counters = io::Json::object();
    for (const auto& [name, value] : registry.counters()) counters.set(name, value);
    out.set("counters", std::move(counters));

    io::Json work = io::Json::object();
    for (const auto& [name, value] : registry.works()) work.set(name, value);
    out.set("work", std::move(work));

    io::Json gauges = io::Json::object();
    for (const auto& [name, value] : registry.gauges()) gauges.set(name, value);
    out.set("gauges", std::move(gauges));

    io::Json histograms = io::Json::object();
    const std::vector<double>& bounds = histogram_bucket_bounds();
    // Latency histograms are clock-derived; under normalized mode the
    // record *counts* stay (they are structural) but every timing-derived
    // statistic and bucket is zeroed, keeping the shape parseable while
    // making same-seed runs byte-identical.
    const bool normalize = registry.trace_normalize();
    for (const auto& [name, h] : registry.histograms()) {
        io::Json hist = io::Json::object();
        hist.set("unit", "us");
        hist.set("total", h.total);
        hist.set("sum", normalize ? 0.0 : h.sum);
        hist.set("mean", normalize ? 0.0 : h.mean());
        hist.set("min", normalize ? 0.0 : h.min);
        hist.set("max", normalize ? 0.0 : h.max);
        hist.set("p50", normalize ? 0.0 : h.quantile(0.50));
        hist.set("p90", normalize ? 0.0 : h.quantile(0.90));
        hist.set("p99", normalize ? 0.0 : h.quantile(0.99));
        io::Json buckets = io::Json::array();
        if (!normalize) {
            for (std::size_t i = 0; i < h.counts.size(); ++i) {
                if (h.counts[i] == 0) continue;  // sparse: only occupied buckets
                io::Json bucket = io::Json::object();
                bucket.set("le_us",
                           i < bounds.size() ? io::Json(bounds[i]) : io::Json());
                bucket.set("count", h.counts[i]);
                buckets.push_back(std::move(bucket));
            }
        }
        hist.set("buckets", std::move(buckets));
        histograms.set(name, std::move(hist));
    }
    out.set("histograms", std::move(histograms));
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

std::string span_text_line(const SpanRecord& record) {
    std::string line = "[obs] ";
    line.append(static_cast<std::size_t>(record.depth) * 2, ' ');
    line += record.name;
    line += "  wall ";
    line += fmt_duration_ns(record.wall_ns);
    line += "  cpu ";
    line += fmt_duration_ns(record.cpu_ns);
    if (!record.attrs.empty()) {
        line += "  (";
        bool first = true;
        for (const auto& [key, value] : record.attrs) {
            if (!first) line += ", ";
            first = false;
            line += key;
            line += '=';
            line += fmt_compact(value);
        }
        line += ')';
    }
    return line;
}

}  // namespace htd::obs
