/// \file test_journal.cpp
/// The htd.events.v1 decision-journal contract (DESIGN.md §15): typed,
/// monotonically sequenced events; crash-safe JSONL append with sequence
/// resumption across reopen; normalized mode making
/// same-seed journals byte-identical; the bounded in-memory ring for
/// in-process forensics; the span cross-reference into htd.trace.v1.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <unistd.h>
#include <vector>

#include "io/json.hpp"
#include "obs/journal.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"

namespace {

using namespace htd;

std::string temp_path(const std::string& tag) {
    return (std::filesystem::temp_directory_path() /
            ("htd_journal_test_" + tag + "_" + std::to_string(::getpid()) +
             ".jsonl"))
        .string();
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::vector<io::Json> parse_lines(const std::string& text) {
    std::vector<io::Json> events;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) events.push_back(io::Json::parse(line));
    }
    return events;
}

/// Every test leaves the process-global journal disabled and denormalized.
class JournalTest : public ::testing::Test {
protected:
    void SetUp() override {
        obs::EventJournal::global().close();
        obs::EventJournal::global().set_normalized(false);
    }
    void TearDown() override {
        obs::EventJournal::global().close();
        obs::EventJournal::global().set_normalized(false);
    }
};

TEST_F(JournalTest, KindRegistryCoversTheDocumentedSet) {
    const std::vector<std::string> documented = {
        "calibration", "recalibration", "boundary_fallback",
        "artifact_degraded", "drift_trip", "quarantine", "chip_scored"};
    std::vector<std::string> names;
    for (int k = 0; k <= static_cast<int>(obs::EventKind::kChipScored); ++k) {
        const auto kind = static_cast<obs::EventKind>(k);
        const std::string_view name = obs::event_kind_name(kind);
        names.emplace_back(name);
        EXPECT_TRUE(obs::event_kind_from_name(name) == kind) << name;
    }
    EXPECT_EQ(names, documented);
    EXPECT_FALSE(obs::event_kind_from_name("").has_value());
    EXPECT_FALSE(obs::event_kind_from_name("chip_scoredd").has_value());
}

TEST_F(JournalTest, DisabledJournalDropsEventsSilently) {
    auto& journal = obs::EventJournal::global();
    EXPECT_FALSE(journal.enabled());
    // A no-op, which must not throw.
    journal.append(obs::Event(obs::EventKind::kChipScored));
    EXPECT_EQ(journal.recent().size(), 0u);
    EXPECT_EQ(journal.sequence(), 0u);
}

TEST_F(JournalTest, AppendWritesValidMonotonicJsonl) {
    const std::string path = temp_path("append");
    std::remove(path.c_str());
    auto& journal = obs::EventJournal::global();
    journal.open(path);
    for (int i = 0; i < 3; ++i) {
        obs::Event event(obs::EventKind::kChipScored);
        event.chip = std::to_string(i);
        event.boundary = "B5";
        event.value("decision", 0.5 - i).value("inside", i == 0 ? 1.0 : 0.0);
        journal.append(std::move(event));
    }
    journal.close();

    const std::vector<io::Json> events = parse_lines(read_file(path));
    ASSERT_EQ(events.size(), 3u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        const io::Json& e = events[i];
        EXPECT_EQ(e.at("schema").str(), std::string(obs::kEventsSchema));
        EXPECT_EQ(e.at("kind").str(), "chip_scored");
        EXPECT_EQ(e.at("seq").number(), static_cast<double>(i + 1));
        EXPECT_EQ(e.at("chip").str(), std::to_string(i));
        EXPECT_EQ(e.at("boundary").str(), "B5");
        EXPECT_EQ(e.at("values").at("decision").number(),
                  0.5 - static_cast<double>(i));
    }
    std::remove(path.c_str());
}

TEST_F(JournalTest, NormalizedSameSequenceIsByteIdentical) {
    const std::string path_a = temp_path("norm_a");
    const std::string path_b = temp_path("norm_b");
    auto& journal = obs::EventJournal::global();
    journal.set_normalized(true);
    for (const std::string& path : {path_a, path_b}) {
        std::remove(path.c_str());
        journal.open(path);  // open resets the sequence per file
        obs::Event calibration(obs::EventKind::kCalibration);
        calibration.detail = "stage1 premanufacturing: B1/B2 trained";
        calibration.value("monte_carlo_samples", 40.0);
        journal.append(std::move(calibration));
        obs::Event scored(obs::EventKind::kChipScored);
        scored.chip = "0";
        scored.boundary = "B4";
        scored.value("decision", 0.125);
        journal.append(std::move(scored));
        journal.close();
    }
    const std::string a = read_file(path_a);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, read_file(path_b));
    // Normalized timestamps are the sequence number, not wall-clock.
    for (const io::Json& e : parse_lines(a)) {
        EXPECT_EQ(e.at("ts_ns").number(), e.at("seq").number());
    }
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST_F(JournalTest, ReopenResumesTheSequence) {
    const std::string path = temp_path("resume");
    std::remove(path.c_str());
    auto& journal = obs::EventJournal::global();
    journal.open(path);
    journal.append(obs::Event(obs::EventKind::kCalibration));
    journal.append(obs::Event(obs::EventKind::kChipScored));
    journal.close();

    // A second process (here: a second open) appending to the same journal
    // must continue after the last persisted sequence number.
    journal.open(path);
    journal.append(obs::Event(obs::EventKind::kRecalibration));
    journal.close();

    const std::vector<io::Json> events = parse_lines(read_file(path));
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[2].at("seq").number(), 3.0);
    EXPECT_EQ(events[2].at("kind").str(), "recalibration");
    std::remove(path.c_str());
}

TEST_F(JournalTest, MemoryRingIsBoundedAndOldestFirst) {
    auto& journal = obs::EventJournal::global();
    journal.enable_memory();
    const std::size_t total = obs::EventJournal::kMaxRecentEvents + 40;
    for (std::size_t i = 0; i < total; ++i) {
        obs::Event event(obs::EventKind::kChipScored);
        event.chip = std::to_string(i);
        journal.append(std::move(event));
    }
    const std::vector<obs::Event> recent = journal.recent();
    ASSERT_EQ(recent.size(), obs::EventJournal::kMaxRecentEvents);
    // Oldest surviving event first, newest last.
    EXPECT_EQ(recent.front().chip, std::to_string(40));
    EXPECT_EQ(recent.back().chip, std::to_string(total - 1));
    EXPECT_EQ(recent.back().seq, total);
    journal.close();
}

TEST_F(JournalTest, EventsCrossReferenceTheEnclosingTraceSpan) {
    auto& journal = obs::EventJournal::global();
    journal.enable_memory();
    // Without tracing there is no enclosing span: id 0.
    journal.append(obs::Event(obs::EventKind::kDriftTrip));
    ASSERT_EQ(journal.recent().size(), 1u);
    EXPECT_EQ(journal.recent()[0].span, 0u);

    obs::Registry::global().configure(obs::SinkKind::kJson);
    obs::Registry::global().reset();
    {
        obs::ScopedSpan span("test.journal_span");
        EXPECT_NE(obs::current_span_id(), 0u);
        journal.append(obs::Event(obs::EventKind::kDriftTrip));
    }
    obs::Registry::global().configure(obs::SinkKind::kOff);
    obs::Registry::global().reset();

    const std::vector<obs::Event> recent = journal.recent();
    ASSERT_EQ(recent.size(), 2u);
    // The journal record carries the id the trace export will contain.
    EXPECT_NE(recent[1].span, 0u);
    journal.close();
}

}  // namespace
