#pragma once
/// \file journal.hpp
/// Decision forensics: an append-only JSONL event journal (schema
/// `htd.events.v1`). Where spans answer "where did the time go" and health
/// probes answer "is the statistics sound", the journal answers "*why* was
/// this chip flagged, and what happened to the calibration along the way" —
/// one typed, monotonically-sequenced record per decision-relevant event:
///
///     calibration        a pipeline calibration stage completed
///     recalibration      a stage re-ran after a previous completion
///     boundary_fallback  B4/B5 fell back to S3 on a KMM collapse
///     artifact_degraded  a tolerant artifact load rejected a section
///     drift_trip         a drift.* health probe reached >= degraded
///     quarantine         the measurement validator dropped a device
///     chip_scored        a device received a boundary verdict
///
/// Every record carries the enclosing trace-span id so journal lines
/// cross-reference `htd.trace.v1` traces, and lot/chip/boundary ids where
/// they apply. The kind list above is `obs::EventKind`: a kind outside it
/// cannot be constructed, and `event_kind_from_name` checks the kind of a
/// journal read back from disk.
///
/// Crash-safety contract: each record is serialized as one compact JSON
/// line, written and flushed before append() returns, so a crash loses at
/// most the record being written — never a previously appended one. The
/// file only grows: it is never rotated or truncated. Re-opening an existing
/// journal resumes after its last sequence number, so a journal appended to
/// by several processes in turn stays monotone.
///
/// Normalized mode (`set_normalized(true)`, or HTD_OBS_NORMALIZE=1 as read
/// by the Registry — the same switch that normalizes traces, DESIGN.md §13)
/// replaces wall-clock timestamps with the sequence number, making
/// same-seed journals byte-identical. HTD_OBS_JOURNAL=<file> enables the
/// journal from the environment without touching caller code.

#include <atomic>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/json.hpp"

namespace htd::obs {

/// Schema tag stamped on every journal record.
inline constexpr std::string_view kEventsSchema = "htd.events.v1";

/// The `htd.events.v1` event kinds, in the documentation order above.
enum class EventKind {
    kCalibration,
    kRecalibration,
    kBoundaryFallback,
    kArtifactDegraded,
    kDriftTrip,
    kQuarantine,
    kChipScored,
};

/// The kind's spelling in journal records ("calibration", ...).
[[nodiscard]] std::string_view event_kind_name(EventKind kind);

/// The kind spelled `name`, or nullopt when no kind is spelled so.
[[nodiscard]] std::optional<EventKind> event_kind_from_name(
    std::string_view name);

/// One journal event. Construct with the kind, fill in the ids that apply,
/// and hand it to `EventJournal::append`, which assigns seq/ts_ns/span:
///
///     obs::Event ev(obs::EventKind::kBoundaryFallback);
///     ev.boundary = "B4";
///     ev.detail = status.detail;
///     ev.value("ess", ess).value("floor", floor);
///     obs::EventJournal::global().append(std::move(ev));
struct Event {
    explicit Event(EventKind event_kind) : kind(event_kind) {}

    EventKind kind;
    std::string lot;       ///< lot id, empty when not applicable
    std::string chip;      ///< chip / device id, empty when not applicable
    std::string boundary;  ///< "B1".."B5", empty when not applicable
    std::string detail;    ///< free-form human-readable context

    /// Named scalar payload (decision values, sample sizes, ...).
    std::vector<std::pair<std::string, double>> values;

    // Assigned by EventJournal::append:
    std::uint64_t seq = 0;   ///< 1-based, strictly increasing per journal
    std::uint64_t span = 0;  ///< enclosing htd.trace.v1 span id (0 = none)
    std::int64_t ts_ns = 0;  ///< wall clock, or seq in normalized mode

    /// Chainable payload helper.
    Event& value(std::string key, double v) {
        values.emplace_back(std::move(key), v);
        return *this;
    }

    /// The htd.events.v1 record (sorted keys, compact-dumpable).
    [[nodiscard]] io::Json to_json() const;
};

/// Append-only JSONL event stream. Disabled by default: `append` on a
/// disabled journal is a single relaxed atomic load, cheap enough for the
/// per-device scoring loop. All mutation is mutex-guarded; see the file
/// comment for the crash-safety and normalization contracts.
class EventJournal {
public:
    /// Process-global journal. First use applies HTD_OBS_JOURNAL (opens the
    /// named file) and HTD_OBS_NORMALIZE (0/1).
    [[nodiscard]] static EventJournal& global();

    EventJournal() = default;
    ~EventJournal();
    EventJournal(const EventJournal&) = delete;
    EventJournal& operator=(const EventJournal&) = delete;

    /// Open (or resume) a journal file and enable appends. An existing
    /// file is appended to, resuming after its last sequence number; a
    /// fresh file starts at seq 1. Also records events in the in-memory
    /// ring. Throws std::runtime_error when the file cannot be opened.
    void open(const std::string& path);

    /// Enable the in-memory ring only (tests): events get sequenced and
    /// retained in `recent()` without touching the filesystem.
    void enable_memory();

    /// Flush, close, disable, and forget the in-memory ring + sequence.
    void close();

    /// True when append() records (file or memory mode).
    [[nodiscard]] bool enabled() const noexcept {
        return enabled_.load(std::memory_order_relaxed);
    }

    /// Normalized mode: deterministic timestamps (ts_ns = seq).
    void set_normalized(bool normalized) noexcept {
        normalized_.store(normalized, std::memory_order_relaxed);
    }
    [[nodiscard]] bool normalized() const noexcept {
        return normalized_.load(std::memory_order_relaxed);
    }

    /// Sequence, stamp, serialize, write + flush. No-op when disabled.
    /// Throws std::runtime_error when the stream write fails (a silent
    /// audit gap is worse than a loud crash).
    void append(Event event);

    /// Snapshot of the most recent events (bounded by kMaxRecentEvents).
    [[nodiscard]] std::vector<Event> recent() const;

    /// Last assigned sequence number (0 before the first append).
    [[nodiscard]] std::uint64_t sequence() const;

    /// Current journal path (empty in memory-only mode).
    [[nodiscard]] std::string path() const;

    /// In-memory ring capacity.
    static constexpr std::size_t kMaxRecentEvents = 1024;

private:
    void apply_environment();
    void reset_locked();

    std::atomic<bool> enabled_{false};
    std::atomic<bool> normalized_{false};

    mutable std::mutex mutex_;  // guards every member below
    std::uint64_t seq_ = 0;
    std::string path_;
    std::ofstream out_;
    // Bounded ring of recent events: ring_[head_] is the oldest slot once
    // the ring has wrapped.
    std::vector<Event> ring_;
    std::size_t ring_head_ = 0;
};

}  // namespace htd::obs
