/// Multi-threaded stress tests for the htd::obs concurrency surface: N
/// writer threads hammer counters / gauges / histograms / nested spans
/// while a reader thread snapshots continuously, HealthMonitor takes
/// concurrent record() / find() / verdict() traffic, and an in-memory
/// EventJournal takes concurrent append() / recent() traffic. The
/// assertions check totals (every write landed exactly once) and journal
/// sequencing; the real teeth are the `tsan` preset (scripts/check.sh
/// tsan), under which any data race in the Registry / HealthMonitor /
/// EventJournal locking fails these tests. No static lock analysis runs
/// on this toolchain, so TSan is the only check of that locking. See
/// DESIGN.md §11.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/journal.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "pipeline/health.hpp"

namespace {

using htd::obs::Event;
using htd::obs::EventJournal;
using htd::core::HealthLevel;
using htd::core::HealthMonitor;
using htd::obs::HistogramSnapshot;
using htd::core::ProbeResult;
using htd::obs::Registry;
using htd::obs::ScopedSpan;
using htd::obs::SinkKind;

class ObsConcurrencyTest : public ::testing::Test {
protected:
    void SetUp() override {
        Registry::global().configure(SinkKind::kJson);
        Registry::global().reset();
    }
    void TearDown() override {
        Registry::global().configure(SinkKind::kOff);
        Registry::global().reset();
    }
};

constexpr std::size_t kThreads = 8;
constexpr std::size_t kIterations = 500;

TEST_F(ObsConcurrencyTest, CountersGaugesHistogramsUnderContention) {
    Registry& registry = Registry::global();
    std::atomic<bool> stop{false};

    // A reader snapshots concurrently with the writers; every snapshot must
    // be internally consistent (no torn maps, no crashes).
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const std::map<std::string, double> counters = registry.counters();
            for (const auto& [name, value] : counters) {
                EXPECT_FALSE(name.empty());
                EXPECT_GE(value, 0.0);
            }
            (void)registry.gauges();
            const std::map<std::string, HistogramSnapshot> hists =
                registry.histograms();
            for (const auto& [name, h] : hists) {
                std::uint64_t bucket_total = 0;
                for (const std::uint64_t c : h.counts) bucket_total += c;
                EXPECT_EQ(bucket_total, h.total) << name;
            }
        }
    });

    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        writers.emplace_back([&registry, t] {
            const std::string own = "stress.own." + std::to_string(t);
            for (std::size_t i = 0; i < kIterations; ++i) {
                registry.counter_add("stress.shared");
                registry.counter_add(own, 2.0);
                registry.gauge_set("stress.gauge", static_cast<double>(i));
                registry.histogram_record("stress.hist",
                                          static_cast<double>(i % 97) + 0.5);
            }
        });
    }
    for (std::thread& w : writers) w.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    EXPECT_DOUBLE_EQ(registry.counter_value("stress.shared"),
                     static_cast<double>(kThreads * kIterations));
    for (std::size_t t = 0; t < kThreads; ++t) {
        EXPECT_DOUBLE_EQ(
            registry.counter_value("stress.own." + std::to_string(t)),
            2.0 * static_cast<double>(kIterations));
    }
    const std::map<std::string, HistogramSnapshot> hists = registry.histograms();
    const auto it = hists.find("stress.hist");
    ASSERT_NE(it, hists.end());
    EXPECT_EQ(it->second.total, kThreads * kIterations);
}

TEST_F(ObsConcurrencyTest, NestedSpansAcrossThreads) {
    Registry& registry = Registry::global();
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            // span_count / spans must stay coherent while writers record.
            const std::size_t n = registry.span_count();
            EXPECT_LE(n, Registry::kMaxStoredSpans);
            (void)registry.spans();
        }
    });

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([t] {
            for (std::size_t i = 0; i < kIterations / 10; ++i) {
                ScopedSpan outer("stress.outer");
                outer.attr("thread", static_cast<double>(t));
                {
                    ScopedSpan inner("stress.inner");
                    inner.attr("i", static_cast<double>(i));
                }
            }
        });
    }
    for (std::thread& w : workers) w.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    // Every span landed: kThreads * iterations of outer + inner each.
    const std::size_t expected = 2 * kThreads * (kIterations / 10);
    EXPECT_EQ(registry.span_count() +
                  static_cast<std::size_t>(registry.spans_dropped()),
              expected);
    // Nesting stayed thread-local: every inner span's parent is an outer
    // span, never a span from another thread's stack.
    std::map<std::uint64_t, std::string> by_id;
    for (const auto& s : registry.spans()) by_id[s.id] = s.name;
    for (const auto& s : registry.spans()) {
        if (s.name == "stress.inner") {
            EXPECT_EQ(s.depth, 1u);
            const auto parent = by_id.find(s.parent);
            if (parent != by_id.end()) {
                EXPECT_EQ(parent->second, "stress.outer");
            }
        } else {
            EXPECT_EQ(s.depth, 0u);
        }
    }
}

TEST_F(ObsConcurrencyTest, HealthMonitorConcurrentRecordAndSnapshot) {
    HealthMonitor monitor;
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            (void)monitor.verdict();
            (void)monitor.probes();
            (void)monitor.to_json();
            const std::optional<ProbeResult> probe = monitor.find("stress.0");
            if (probe.has_value()) {
                EXPECT_EQ(probe->name, "stress.0");
            }
        }
    });

    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        writers.emplace_back([&monitor, t] {
            for (std::size_t i = 0; i < kIterations / 5; ++i) {
                ProbeResult probe;
                probe.name = "stress." + std::to_string(t);
                probe.value("iteration", static_cast<double>(i));
                if (i % 7 == 0) {
                    probe.escalate(HealthLevel::kWarn, "synthetic warn");
                }
                monitor.record(std::move(probe));
                // Only this thread writes its name, so its probe is visible.
                EXPECT_TRUE(monitor.find("stress." + std::to_string(t)).has_value());
            }
        });
    }
    for (std::thread& w : writers) w.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    // Same-name probes replace, so exactly one probe per thread survives.
    EXPECT_EQ(monitor.probes().size(), kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        EXPECT_TRUE(monitor.find("stress." + std::to_string(t)).has_value());
    }
}

TEST_F(ObsConcurrencyTest, EventJournalConcurrentAppendAndRecent) {
    // Memory mode on a private journal: the total stays inside the ring,
    // so every appended event must be retained.
    constexpr std::size_t kPerThread = 100;
    static_assert(kThreads * kPerThread <= EventJournal::kMaxRecentEvents);
    EventJournal journal;
    journal.enable_memory();
    std::atomic<bool> stop{false};

    // Every snapshot the reader takes must already be in sequence order.
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const std::vector<Event> snapshot = journal.recent();
            for (std::size_t i = 1; i < snapshot.size(); ++i) {
                EXPECT_LT(snapshot[i - 1].seq, snapshot[i].seq);
            }
        }
    });

    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        writers.emplace_back([&journal, t] {
            for (std::size_t i = 0; i < kPerThread; ++i) {
                Event event(i % 2 == 0 ? "chip_scored" : "drift_trip");
                event.chip = std::to_string(t);
                event.value("i", static_cast<double>(i));
                journal.append(std::move(event));
            }
        });
    }
    for (std::thread& w : writers) w.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    // Every event landed exactly once, with seq 1..N in ring order, and
    // each writer's events kept their append order.
    const std::vector<Event> events = journal.recent();
    ASSERT_EQ(events.size(), kThreads * kPerThread);
    EXPECT_EQ(journal.sequence(), kThreads * kPerThread);
    std::map<std::string, std::size_t> next_i;
    for (std::size_t k = 0; k < events.size(); ++k) {
        EXPECT_EQ(events[k].seq, k + 1);
        ASSERT_EQ(events[k].values.size(), 1u);
        const auto i = static_cast<std::size_t>(events[k].values[0].second);
        EXPECT_EQ(i, next_i[events[k].chip]++) << "chip " << events[k].chip;
    }
    ASSERT_EQ(next_i.size(), kThreads);
    for (const auto& [chip, count] : next_i) {
        EXPECT_EQ(count, kPerThread) << "chip " << chip;
    }
}

}  // namespace
