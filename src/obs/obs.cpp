#include "obs/obs.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "core/annotations.hpp"
#include "obs/run_report.hpp"
#include "obs/sink.hpp"

namespace htd::obs {

std::string sink_kind_name(SinkKind kind) {
    switch (kind) {
        case SinkKind::kInherit: return "inherit";
        case SinkKind::kOff: return "off";
        case SinkKind::kText: return "text";
        case SinkKind::kJson: return "json";
    }
    throw std::invalid_argument("sink_kind_name: unknown sink kind");
}

SinkKind sink_kind_from_env(std::string_view value, std::string* error) {
    if (value.empty() || value == "off") return SinkKind::kOff;
    if (value == "text") return SinkKind::kText;
    if (value == "json") return SinkKind::kJson;
    if (error != nullptr) {
        *error = "[obs] unrecognized HTD_OBS value '" + std::string(value) +
                 "' — valid values are: off, text, json (observability stays off)";
    }
    return SinkKind::kInherit;
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

const std::vector<double>& histogram_bucket_bounds() {
    // 1-2-5 ladder, 1 µs .. 10 s; values above fall into the overflow bucket.
    static const std::vector<double> bounds = {
        1.0,     2.0,     5.0,     10.0,     20.0,     50.0,     100.0,
        200.0,   500.0,   1e3,     2e3,      5e3,      1e4,      2e4,
        5e4,     1e5,     2e5,     5e5,      1e6,      2e6,      5e6,
        1e7};
    return bounds;
}

double HistogramSnapshot::quantile(double q) const noexcept {
    if (total == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const std::vector<double>& bounds = histogram_bucket_bounds();
    const double target = q * static_cast<double>(total);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0) continue;
        const double next = cumulative + static_cast<double>(counts[i]);
        if (target <= next) {
            const double lo = i == 0 ? 0.0 : bounds[i - 1];
            const double hi = i < bounds.size() ? bounds[i] : std::max(max, lo);
            const double frac = (target - cumulative) / static_cast<double>(counts[i]);
            return std::clamp(lo + frac * (hi - lo), min, max);
        }
        cumulative = next;
    }
    return max;
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
    const char* path = std::getenv("HTD_OBS_PATH");  // NOLINT(concurrency-mt-unsafe)
    json_path_ = (path != nullptr && *path != '\0') ? path : "htd_obs.json";

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
    if (kind == SinkKind::kInherit) {
        // Registry construction runs once per process, so this warning is
        // naturally one-time.
        std::fprintf(stderr, "%s\n", error.c_str());
        return;
    }
    configure(kind);
}

void Registry::configure(SinkKind sink) {
    if (sink == SinkKind::kInherit) return;
    sink_.store(sink, std::memory_order_relaxed);
    enabled_.store(sink != SinkKind::kOff, std::memory_order_relaxed);
}

std::string Registry::json_path() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return json_path_;
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

void Registry::counter_add_locked(std::string_view name, double delta) {
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        counters_.emplace(std::string(name), delta);
    } else {
        it->second += delta;
    }
}

void Registry::counter_add(std::string_view name, double delta) {
    if (!enabled()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    counter_add_locked(name, delta);
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

void Registry::gauge_set(std::string_view name, double value) {
    if (!enabled()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        gauges_.emplace(std::string(name), value);
    } else {
        it->second = value;
    }
}

void Registry::histogram_record_locked(std::string_view name, double value_us) {
    const std::vector<double>& bounds = histogram_bucket_bounds();
    const auto bucket = static_cast<std::size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), value_us) - bounds.begin());
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(std::string(name), HistogramSnapshot{}).first;
        it->second.counts.assign(bounds.size() + 1, 0);
    }
    HistogramSnapshot& h = it->second;
    h.counts[bucket] += 1;
    h.sum += value_us;
    h.min = h.total == 0 ? value_us : std::min(h.min, value_us);
    h.max = h.total == 0 ? value_us : std::max(h.max, value_us);
    h.total += 1;
}

void Registry::histogram_record(std::string_view name, double value_us) {
    if (!enabled()) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    histogram_record_locked(name, value_us);
}

void Registry::span_record(SpanRecord record) {
    if (!enabled()) return;
    if (sink() == SinkKind::kText) {
        const std::string line = span_text_line(record);
        std::fprintf(stderr, "%s\n", line.c_str());
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    // Every span also feeds a latency histogram, so repeated spans keep an
    // aggregate view even once the stored-span cap is hit.
    histogram_record_locked("span." + record.name,
                            static_cast<double>(record.wall_ns) / 1e3);
    if (spans_.size() >= kMaxStoredSpans) {
        counter_add_locked("obs.spans_dropped", 1.0);
        return;
    }
    spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Registry::spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, double> Registry::counters() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return {counters_.begin(), counters_.end()};
}

std::map<std::string, double> Registry::works() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return {works_.begin(), works_.end()};
}

std::map<std::string, double> Registry::gauges() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return {gauges_.begin(), gauges_.end()};
}

std::map<std::string, HistogramSnapshot> Registry::histograms() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return {histograms_.begin(), histograms_.end()};
}

double Registry::counter_value(std::string_view name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
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

void Registry::flush() const {
    if (sink() != SinkKind::kText) return;
    const std::string text = metrics_text(*this);
    if (!text.empty()) std::fprintf(stderr, "%s", text.c_str());
}

void Registry::write_default_report() const {
    if (sink() != SinkKind::kJson) return;
    RunReport report("htd_obs");
    report.capture_observability(*this);
    report.write(json_path());
}

void Registry::reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
    counters_.clear();
    works_.clear();
    gauges_.clear();
    histograms_.clear();
    // Restart span ids so a reset registry reproduces the exact same
    // trace (the normalized byte-identity guarantee holds within one
    // process, not just across runs). Spans still open across a reset
    // already dangle — their parent links point at cleared records — so
    // restarting the counter does not lose anything that was coherent.
    next_id_.store(0, std::memory_order_relaxed);
}

}  // namespace htd::obs
