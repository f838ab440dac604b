#include "obs/span.hpp"

#include <chrono>
#include <ctime>

#include "core/annotations.hpp"

namespace htd::obs {

namespace {

/// Per-thread stack of open span ids; the top is the parent of the next
/// span opened on this thread.
thread_local std::vector<std::uint64_t> open_spans HTD_SHARED_STATE_OK(
    "per-thread span stack: thread_local by design, never visible to "
    "another thread");

}  // namespace

std::uint64_t current_span_id() noexcept {
    return open_spans.empty() ? 0 : open_spans.back();
}

std::int64_t wall_clock_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t thread_cpu_ns() noexcept {
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
        return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
    }
#endif
    // Fallback: process CPU time (coarse, but monotone).
    return static_cast<std::int64_t>(std::clock()) * 1'000'000'000 / CLOCKS_PER_SEC;
}

ScopedSpan::ScopedSpan(std::string_view name) {
    Registry& registry = Registry::global();
    if (!registry.enabled()) return;
    active_ = true;
    name_ = std::string(name);
    id_ = registry.next_span_id();
    parent_ = open_spans.empty() ? 0 : open_spans.back();
    depth_ = static_cast<std::uint32_t>(open_spans.size());
    thread_ = Registry::current_thread_index();
    open_spans.push_back(id_);
    // Clocks read last so setup cost is not attributed to the span.
    start_cpu_ns_ = thread_cpu_ns();
    start_wall_ns_ = wall_clock_ns();
}

ScopedSpan::~ScopedSpan() {
    if (!active_) return;
    SpanRecord record;
    record.wall_ns = wall_clock_ns() - start_wall_ns_;
    record.cpu_ns = thread_cpu_ns() - start_cpu_ns_;
    record.id = id_;
    record.parent = parent_;
    record.depth = depth_;
    record.thread = thread_;
    record.name = std::move(name_);
    record.start_wall_ns = start_wall_ns_;
    record.attrs = std::move(attrs_);
    if (!open_spans.empty() && open_spans.back() == id_) open_spans.pop_back();
    Registry::global().span_record(std::move(record));
}

void ScopedSpan::attr(std::string_view key, double value) {
    if (!active_) return;
    attrs_.emplace_back(std::string(key), value);
}

}  // namespace htd::obs
