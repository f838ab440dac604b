#include "obs/trace_export.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

namespace htd::obs {

namespace {

io::Json metadata_event(const char* name, std::uint32_t tid, std::string value) {
    io::Json event = io::Json::object();
    event.set("ph", "M");
    event.set("name", name);
    event.set("pid", 1.0);
    event.set("tid", static_cast<double>(tid));
    io::Json args = io::Json::object();
    args.set("name", std::move(value));
    event.set("args", std::move(args));
    return event;
}

}  // namespace

/// Euler-tour tick assignment for normalized mode: per thread, walk the
/// span tree depth-first (siblings in id order — ids are assigned at span
/// open, so this is execution order for single-threaded sections) and give
/// every span ts = its enter tick and dur = exit - enter. Purely
/// structural, hence byte-identical across same-seed runs.
std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> span_euler_ticks(
    const std::vector<SpanRecord>& spans) {
    std::map<std::uint64_t, std::vector<std::uint64_t>> children;  // parent -> ids
    std::map<std::uint64_t, const SpanRecord*> by_id;
    for (const SpanRecord& s : spans) by_id.emplace(s.id, &s);

    std::map<std::uint32_t, std::vector<std::uint64_t>> roots;  // thread -> ids
    for (const SpanRecord& s : spans) {
        if (s.parent != 0 && by_id.count(s.parent) != 0) {
            children[s.parent].push_back(s.id);
        } else {
            // True roots, plus orphans whose parent fell past the storage
            // cap — promoted so they still appear on their thread's track.
            roots[s.thread].push_back(s.id);
        }
    }
    for (auto& [parent, ids] : children) std::sort(ids.begin(), ids.end());
    for (auto& [thread, ids] : roots) std::sort(ids.begin(), ids.end());

    std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> ticks;
    for (auto& [thread, root_ids] : roots) {
        std::int64_t tick = 0;
        // Iterative DFS; a negative id marks the exit visit.
        std::vector<std::int64_t> stack(root_ids.rbegin(), root_ids.rend());
        while (!stack.empty()) {
            const std::int64_t top = stack.back();
            stack.pop_back();
            if (top < 0) {
                ticks[static_cast<std::uint64_t>(-top)].second = tick++;
                continue;
            }
            const auto id = static_cast<std::uint64_t>(top);
            ticks[id].first = tick++;
            stack.push_back(-top);
            const auto it = children.find(id);
            if (it != children.end()) {
                stack.insert(stack.end(), it->second.rbegin(), it->second.rend());
            }
        }
    }
    return ticks;
}

io::Json trace_events_json(const Registry& registry, bool normalize) {
    std::vector<SpanRecord> spans = registry.spans();
    std::sort(spans.begin(), spans.end(),
              [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });

    std::int64_t origin_ns = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        origin_ns = i == 0 ? spans[i].start_wall_ns
                           : std::min(origin_ns, spans[i].start_wall_ns);
    }

    std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> ticks;
    if (normalize) ticks = span_euler_ticks(spans);

    std::vector<std::uint32_t> threads;
    for (const SpanRecord& s : spans) threads.push_back(s.thread);
    std::sort(threads.begin(), threads.end());
    threads.erase(std::unique(threads.begin(), threads.end()), threads.end());

    io::Json events = io::Json::array();
    events.push_back(metadata_event("process_name", 0, "htd"));
    for (const std::uint32_t tid : threads) {
        events.push_back(metadata_event(
            "thread_name", tid,
            tid == 1 ? std::string("main") : "worker " + std::to_string(tid)));
    }

    for (const SpanRecord& s : spans) {
        io::Json event = io::Json::object();
        event.set("ph", "X");
        event.set("cat", "htd");
        event.set("name", s.name);
        event.set("pid", 1.0);
        event.set("tid", static_cast<double>(s.thread));
        if (normalize) {
            const auto& [enter, exit] = ticks.at(s.id);
            event.set("ts", static_cast<double>(enter));
            event.set("dur", static_cast<double>(exit - enter));
        } else {
            event.set("ts", static_cast<double>(s.start_wall_ns - origin_ns) / 1e3);
            event.set("dur", static_cast<double>(s.wall_ns) / 1e3);
        }
        io::Json args = io::Json::object();
        args.set("id", static_cast<double>(s.id));
        args.set("parent", static_cast<double>(s.parent));
        args.set("depth", static_cast<double>(s.depth));
        if (!normalize) args.set("cpu_ns", static_cast<double>(s.cpu_ns));
        for (const auto& [key, value] : s.attrs) args.set(key, value);
        event.set("args", std::move(args));
        events.push_back(std::move(event));
    }

    io::Json other = io::Json::object();
    other.set("schema", kTraceSchema);
    other.set("normalized", normalize);
    other.set("span_count", static_cast<double>(spans.size()));
    other.set("spans_dropped", registry.spans_dropped());
    // Work counters ride along so a trace is self-contained for
    // htd_profile: wall time says where the run was slow, work says how
    // much algorithmic work each kernel did. Deterministic for same-seed
    // runs, so safe under the normalized byte-identity guarantee.
    io::Json work = io::Json::object();
    for (const auto& [name, value] : registry.works()) work.set(name, value);
    other.set("work", std::move(work));

    io::Json doc = io::Json::object();
    doc.set("displayTimeUnit", "ns");
    doc.set("otherData", std::move(other));
    doc.set("traceEvents", std::move(events));
    return doc;
}

void write_trace(const std::string& path, const Registry& registry, bool normalize) {
    trace_events_json(registry, normalize).dump_to_file(path, 1);
}

std::string write_trace_if_configured(const Registry& registry) {
    const std::string path = registry.trace_path();
    if (path.empty()) return {};
    write_trace(path, registry, registry.trace_normalize());
    return path;
}

}  // namespace htd::obs
