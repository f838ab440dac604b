/// Tests for the Perfetto/chrome://tracing trace exporter
/// (src/obs/trace_export.hpp): document shape, span-tree fidelity
/// (ids/parents/threads), Euler-tour tick normalization and its
/// byte-identity guarantee, cpu_ns scrubbing, and the
/// HTD_OBS_TRACE-configured write path. Every generated trace is also run
/// through htd_profile's check_trace so the exporter and the validator
/// cannot drift apart.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "io/json.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "profile.hpp"

namespace {

using htd::io::Json;
using htd::obs::Registry;
using htd::obs::ScopedSpan;
using htd::obs::SinkKind;

class TraceExportTest : public ::testing::Test {
protected:
    void SetUp() override {
        Registry::global().configure(SinkKind::kJson);
        Registry::global().reset();
    }
    void TearDown() override {
        Registry::global().set_trace_path("");
        Registry::global().set_trace_normalize(false);
        Registry::global().configure(SinkKind::kOff);
        Registry::global().reset();
    }
};

/// The "X" span events of a trace document, in emission order.
std::vector<Json> span_events(const Json& doc) {
    std::vector<Json> events;
    for (const Json& event : doc.at("traceEvents").elements()) {
        if (event.at("ph").str() == "X") events.push_back(event);
    }
    return events;
}

const Json& event_named(const std::vector<Json>& events, const std::string& name) {
    for (const Json& event : events) {
        if (event.at("name").str() == name) return event;
    }
    throw std::runtime_error("no span event named " + name);
}

TEST_F(TraceExportTest, EmptyRegistryExportsValidSkeleton) {
    const Json doc = htd::obs::trace_events_json(Registry::global());
    EXPECT_EQ(doc.at("otherData").at("schema").str(), htd::obs::kTraceSchema);
    EXPECT_EQ(doc.at("otherData").at("span_count").number(), 0.0);
    EXPECT_TRUE(span_events(doc).empty());

    const htd::profile::TraceCheck check = htd::profile::check_trace(doc);
    EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors.front());
    EXPECT_EQ(check.span_events, 0u);
}

TEST_F(TraceExportTest, SpanTreeSerializesWithIdsParentsAndAttrs) {
    {
        ScopedSpan outer("test.outer");
        outer.attr("observations", 7.0);
        { ScopedSpan inner("test.inner"); }
    }
    { ScopedSpan sibling("test.sibling"); }
    Registry::global().work_add("work.test.units", 42.0);

    const Json doc = htd::obs::trace_events_json(Registry::global());
    const std::vector<Json> events = span_events(doc);
    ASSERT_EQ(events.size(), 3u);

    const Json& outer = event_named(events, "test.outer");
    const Json& inner = event_named(events, "test.inner");
    EXPECT_EQ(inner.at("args").at("parent").number(),
              outer.at("args").at("id").number());
    EXPECT_EQ(outer.at("args").at("parent").number(), 0.0);
    EXPECT_EQ(outer.at("args").at("observations").number(), 7.0);
    EXPECT_EQ(inner.at("args").at("depth").number(),
              outer.at("args").at("depth").number() + 1.0);
    // Raw (non-normalized) mode keeps the measured cpu time.
    EXPECT_TRUE(outer.at("args").contains("cpu_ns"));

    EXPECT_EQ(doc.at("otherData").at("work").at("work.test.units").number(), 42.0);

    const htd::profile::TraceCheck check = htd::profile::check_trace(doc);
    EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors.front());
    EXPECT_EQ(check.span_events, 3u);
    EXPECT_EQ(check.work.at("work.test.units"), 42.0);
}

TEST_F(TraceExportTest, NormalizedTicksAreAnEulerTour) {
    {
        ScopedSpan root("test.root");
        { ScopedSpan first("test.first"); }
        { ScopedSpan second("test.second"); }
    }
    const Json doc = htd::obs::trace_events_json(Registry::global(),
                                                 /*normalize=*/true);
    const std::vector<Json> events = span_events(doc);
    ASSERT_EQ(events.size(), 3u);
    const Json& root = event_named(events, "test.root");
    const Json& first = event_named(events, "test.first");
    const Json& second = event_named(events, "test.second");

    // DFS over {root -> first, second}: enter/exit ticks 0..5.
    EXPECT_EQ(root.at("ts").number(), 0.0);
    EXPECT_EQ(root.at("dur").number(), 5.0);
    EXPECT_EQ(first.at("ts").number(), 1.0);
    EXPECT_EQ(first.at("dur").number(), 1.0);
    EXPECT_EQ(second.at("ts").number(), 3.0);
    EXPECT_EQ(second.at("dur").number(), 1.0);

    // Children nest strictly inside the parent interval — the property
    // Perfetto's flame view needs.
    for (const Json* child : {&first, &second}) {
        EXPECT_GT(child->at("ts").number(), root.at("ts").number());
        EXPECT_LT(child->at("ts").number() + child->at("dur").number(),
                  root.at("ts").number() + root.at("dur").number());
    }
    EXPECT_TRUE(doc.at("otherData").at("normalized").boolean());
}

TEST_F(TraceExportTest, NormalizedExportIsByteIdentical) {
    const auto record_run = [] {
        Registry::global().reset();
        {
            ScopedSpan root("test.pipeline");
            root.attr("devices", 36.0);
            { ScopedSpan stage("test.stage_a"); }
            { ScopedSpan stage("test.stage_b"); }
        }
        Registry::global().work_add("work.test.kernel_evals", 40000.0);
        return htd::obs::trace_events_json(Registry::global(),
                                           /*normalize=*/true)
            .dump(1);
    };
    const std::string first = record_run();
    const std::string second = record_run();
    EXPECT_EQ(first, second);
}

TEST_F(TraceExportTest, NormalizeDropsWallClockAndResourceAttrs) {
    {
        ScopedSpan span("test.resourceful");
        span.attr("observations", 3.0);
    }
    // cpu_ns, the span's CPU-time measurement, rides along raw...
    const Json raw = htd::obs::trace_events_json(Registry::global());
    const std::vector<Json> raw_events = span_events(raw);
    const Json& raw_args = event_named(raw_events, "test.resourceful").at("args");
    EXPECT_TRUE(raw_args.contains("cpu_ns"));

    // ...and is dropped when normalized.
    const Json norm = htd::obs::trace_events_json(Registry::global(),
                                                  /*normalize=*/true);
    const std::vector<Json> norm_events = span_events(norm);
    const Json& norm_args =
        event_named(norm_events, "test.resourceful").at("args");
    EXPECT_FALSE(norm_args.contains("cpu_ns"));
    // Caller attrs survive normalization — they are part of the
    // deterministic span payload.
    EXPECT_EQ(norm_args.at("observations").number(), 3.0);
}

TEST_F(TraceExportTest, ThreadsGetDistinctTracksAndMetadata) {
    { ScopedSpan main_span("test.on_main"); }
    std::thread worker([] { ScopedSpan span("test.on_worker"); });
    worker.join();

    const Json doc = htd::obs::trace_events_json(Registry::global());
    const std::vector<Json> events = span_events(doc);
    const double main_tid = event_named(events, "test.on_main").at("tid").number();
    const double worker_tid =
        event_named(events, "test.on_worker").at("tid").number();
    EXPECT_GT(main_tid, 0.0);
    EXPECT_GT(worker_tid, 0.0);
    EXPECT_NE(main_tid, worker_tid);

    // Every tid that carries spans also gets a thread_name metadata event.
    std::map<double, std::string> thread_names;
    for (const Json& event : doc.at("traceEvents").elements()) {
        if (event.at("ph").str() == "M" &&
            event.at("name").str() == "thread_name") {
            thread_names[event.at("tid").number()] =
                event.at("args").at("name").str();
        }
    }
    ASSERT_EQ(thread_names.count(main_tid), 1u);
    ASSERT_EQ(thread_names.count(worker_tid), 1u);
    EXPECT_NE(thread_names[main_tid], thread_names[worker_tid]);

    const htd::profile::TraceCheck check = htd::profile::check_trace(doc);
    EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors.front());
}

TEST_F(TraceExportTest, WriteTraceIfConfiguredHonorsTracePath) {
    EXPECT_TRUE(htd::obs::write_trace_if_configured().empty());

    const std::string path =
        (std::filesystem::temp_directory_path() / "htd_test_trace.json").string();
    Registry::global().set_trace_path(path);
    Registry::global().set_trace_normalize(true);
    { ScopedSpan span("test.configured"); }

    const std::string written = htd::obs::write_trace_if_configured();
    EXPECT_EQ(written, path);
    const Json doc = Json::parse_file(path);
    EXPECT_EQ(doc.at("otherData").at("schema").str(), htd::obs::kTraceSchema);
    EXPECT_TRUE(doc.at("otherData").at("normalized").boolean());
    EXPECT_EQ(event_named(span_events(doc), "test.configured").at("name").str(),
              "test.configured");
    std::remove(path.c_str());
}

}  // namespace
