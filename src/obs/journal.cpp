#include "obs/journal.hpp"

#include <cstdlib>
#include <stdexcept>

#include "core/annotations.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"

namespace htd::obs {

std::string_view event_kind_name(EventKind kind) {
    // No default: -Wswitch flags a kind added without a name.
    switch (kind) {
        case EventKind::kCalibration: return "calibration";
        case EventKind::kRecalibration: return "recalibration";
        case EventKind::kBoundaryFallback: return "boundary_fallback";
        case EventKind::kArtifactDegraded: return "artifact_degraded";
        case EventKind::kDriftTrip: return "drift_trip";
        case EventKind::kQuarantine: return "quarantine";
        case EventKind::kChipScored: return "chip_scored";
    }
    return {};  // unreachable for a valid enumerator
}

std::optional<EventKind> event_kind_from_name(std::string_view name) {
    for (int k = 0; k <= static_cast<int>(EventKind::kChipScored); ++k) {
        const auto kind = static_cast<EventKind>(k);
        if (event_kind_name(kind) == name) return kind;
    }
    return std::nullopt;
}

io::Json Event::to_json() const {
    io::Json doc = io::Json::object();
    doc.set("schema", std::string(kEventsSchema));
    doc.set("seq", static_cast<double>(seq));
    doc.set("ts_ns", static_cast<double>(ts_ns));
    doc.set("kind", std::string(event_kind_name(kind)));
    doc.set("span", static_cast<double>(span));
    doc.set("lot", lot);
    doc.set("chip", chip);
    doc.set("boundary", boundary);
    doc.set("detail", detail);
    io::Json vals = io::Json::object();
    for (const auto& [key, v] : values) vals.set(key, v);
    doc.set("values", std::move(vals));
    return doc;
}

namespace {

/// Recover the last sequence number of an existing journal so a resumed
/// stream stays strictly monotone. Tolerant: a torn final line (the one
/// crash-safe append can lose) is skipped, falling back to the line before.
std::uint64_t last_sequence_in(const std::string& path) {
    std::ifstream in(path);
    if (!in.is_open()) return 0;
    std::uint64_t last = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        try {
            const io::Json record = io::Json::parse(line);
            if (record.contains("seq")) {
                last = static_cast<std::uint64_t>(record.at("seq").number());
            }
        } catch (const std::invalid_argument&) {
            // Torn tail from an interrupted append; keep the previous seq.
        }
    }
    return last;
}

}  // namespace

EventJournal& EventJournal::global() {
    static EventJournal* instance HTD_SHARED_STATE_OK(
        "process-wide journal handle; written once by the thread-safe "
        "magic-static initializer, read-only afterwards") = [] {
        static EventJournal journal HTD_SHARED_STATE_OK(
            "singleton journal storage; every mutation after construction "
            "goes through the journal mutex");
        journal.apply_environment();
        return &journal;
    }();
    return *instance;
}

EventJournal::~EventJournal() = default;

void EventJournal::apply_environment() {
    // HTD_OBS_NORMALIZE is parsed (and a typo warned about) once, by the
    // Registry; the journal follows the Registry's setting.
    set_normalized(Registry::global().trace_normalize());
    // getenv read below: journal construction runs once, before any worker
    // threads exist, and nothing in this process calls setenv.
    const char* path = std::getenv("HTD_OBS_JOURNAL");  // NOLINT(concurrency-mt-unsafe)
    if (path != nullptr && *path != '\0') open(path);
}

void EventJournal::reset_locked() {
    if (out_.is_open()) out_.close();
    path_.clear();
    seq_ = 0;
    ring_.clear();
    ring_head_ = 0;
}

void EventJournal::open(const std::string& path) {
    const std::lock_guard<std::mutex> lock(mutex_);
    reset_locked();
    seq_ = last_sequence_in(path);
    out_.open(path, std::ios::binary | std::ios::app);
    if (!out_.is_open()) {
        enabled_.store(false, std::memory_order_relaxed);
        throw std::runtime_error("EventJournal: cannot open journal file " +
                                 path);
    }
    path_ = path;
    enabled_.store(true, std::memory_order_relaxed);
}

void EventJournal::enable_memory() {
    const std::lock_guard<std::mutex> lock(mutex_);
    reset_locked();
    enabled_.store(true, std::memory_order_relaxed);
}

void EventJournal::close() {
    const std::lock_guard<std::mutex> lock(mutex_);
    enabled_.store(false, std::memory_order_relaxed);
    reset_locked();
}

void EventJournal::append(Event event) {
    if (!enabled()) return;
    event.span = current_span_id();
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled()) return;  // closed between the fast check and the lock
    event.seq = ++seq_;
    event.ts_ns = normalized() ? static_cast<std::int64_t>(event.seq)
                               : wall_clock_ns();
    if (out_.is_open()) {
        const std::string line = event.to_json().dump() + "\n";
        out_.write(line.data(), static_cast<std::streamsize>(line.size()));
        out_.flush();
        if (!out_.good()) {
            enabled_.store(false, std::memory_order_relaxed);
            throw std::runtime_error("EventJournal: write to " + path_ +
                                     " failed");
        }
    }
    if (ring_.size() < kMaxRecentEvents) {
        ring_.push_back(std::move(event));
    } else {
        ring_[ring_head_] = std::move(event);
        ring_head_ = (ring_head_ + 1) % kMaxRecentEvents;
    }
}

std::vector<Event> EventJournal::recent() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Event> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
        out.push_back(ring_[(ring_head_ + i) % ring_.size()]);
    }
    return out;
}

std::uint64_t EventJournal::sequence() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return seq_;
}

std::string EventJournal::path() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return path_;
}

}  // namespace htd::obs
