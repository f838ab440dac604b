#include "obs/obs.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "core/annotations.hpp"

namespace htd::obs {

std::string sink_kind_name(SinkKind kind) {
    switch (kind) {
        case SinkKind::kOff: return "off";
        case SinkKind::kJson: return "json";
    }
    throw std::invalid_argument("sink_kind_name: unknown sink kind");
}

SinkKind sink_kind_from_env(std::string_view value, std::string* error) {
    if (value.empty() || value == "off") return SinkKind::kOff;
    if (value == "json") return SinkKind::kJson;
    if (error != nullptr) {
        *error = "[obs] unrecognized HTD_OBS value '" + std::string(value) +
                 "' — valid values are: off, json (observability stays off)";
    }
    return SinkKind::kOff;
}

bool bool_env_value(std::string_view variable, std::string_view value,
                    std::string* error) {
    if (value.empty() || value == "0") return false;
    if (value == "1") return true;
    if (error != nullptr) {
        *error = "[obs] unrecognized " + std::string(variable) + " value '" +
                 std::string(value) + "' — valid values are: 0, 1 (treated as 0)";
    }
    return false;
}

Registry::Registry() { apply_environment(); }

Registry& Registry::global() {
    static Registry instance HTD_SHARED_STATE_OK(
        "process-wide metrics registry: every mutation goes through mutex_ "
        "or an atomic, and magic-static construction is thread-safe");
    return instance;
}

void Registry::apply_environment() {
    // getenv reads below: registry construction runs once, before any
    // worker threads exist, and nothing in this process calls setenv.
    const char* trace = std::getenv("HTD_OBS_TRACE");  // NOLINT(concurrency-mt-unsafe)
    if (trace != nullptr && *trace != '\0') trace_path_ = trace;

    // Boolean toggles share the HTD_OBS typo contract: an invalid value
    // warns once on stderr (registry construction runs once per process)
    // naming the valid values instead of silently acting as "on" or "off".
    const char* normalize = std::getenv("HTD_OBS_NORMALIZE");  // NOLINT(concurrency-mt-unsafe)
    if (normalize != nullptr) {
        std::string error;
        if (bool_env_value("HTD_OBS_NORMALIZE", normalize, &error)) {
            trace_normalize_.store(true, std::memory_order_relaxed);
        }
        if (!error.empty()) std::fprintf(stderr, "%s\n", error.c_str());
    }

    const char* mode = std::getenv("HTD_OBS");  // NOLINT(concurrency-mt-unsafe)
    if (mode == nullptr) {
        // A trace request implies recording even without an explicit sink.
        if (!trace_path_.empty()) configure(SinkKind::kJson);
        return;
    }
    std::string error;
    const SinkKind kind = sink_kind_from_env(mode, &error);
    // Registry construction runs once per process, so this warning is
    // naturally one-time.
    if (!error.empty()) std::fprintf(stderr, "%s\n", error.c_str());
    configure(kind);
}

void Registry::configure(SinkKind sink) {
    sink_.store(sink, std::memory_order_relaxed);
    enabled_.store(sink != SinkKind::kOff, std::memory_order_relaxed);
}

std::string Registry::trace_path() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return trace_path_;
}

void Registry::set_trace_path(std::string path) {
    const std::lock_guard<std::mutex> lock(mutex_);
    trace_path_ = std::move(path);
}

std::uint32_t Registry::current_thread_index() noexcept {
    static std::atomic<std::uint32_t> next HTD_SHARED_STATE_OK(
        "monotonic thread-index source; the relaxed fetch_add is the only "
        "mutation and collisions are impossible"){0};
    thread_local const std::uint32_t index =
        next.fetch_add(1, std::memory_order_relaxed) + 1;
    return index;
}

void Registry::work_add(std::string_view name, double delta) {
    if (!enabled()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = works_.find(name);
    if (it == works_.end()) {
        works_.emplace(std::string(name), delta);
    } else {
        it->second += delta;
    }
}

void Registry::span_record(SpanRecord record) {
    if (!enabled()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() >= kMaxStoredSpans) {
        ++spans_dropped_;
        return;
    }
    spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Registry::spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, double> Registry::works() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return {works_.begin(), works_.end()};
}

double Registry::work_value(std::string_view name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = works_.find(name);
    return it == works_.end() ? 0.0 : it->second;
}

std::size_t Registry::span_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

double Registry::spans_dropped() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<double>(spans_dropped_);
}

void Registry::reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
    spans_dropped_ = 0;
    works_.clear();
    // Restart span ids so a reset registry reproduces the exact same
    // trace (the normalized byte-identity guarantee holds within one
    // process, not just across runs). Spans still open across a reset
    // already dangle — their parent links point at cleared records — so
    // restarting the counter does not lose anything that was coherent.
    next_id_.store(0, std::memory_order_relaxed);
}

}  // namespace htd::obs
