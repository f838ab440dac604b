/// Tests for the observability layer: scoped spans (nesting, timing), the
/// registry's work counters and dropped-span count, the JSON sink
/// round-trip through the io::Json parser, and the pipeline RunReport.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>

#include "pipeline/experiment.hpp"
#include "pipeline/report.hpp"
#include "io/json.hpp"
#include "obs/obs.hpp"
#include "obs/run_report.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"

namespace {

using htd::io::Json;
using htd::obs::Registry;
using htd::obs::ScopedSpan;
using htd::obs::SinkKind;

// The registry is process-global; each test starts from a clean JSON sink
// and leaves the registry disabled for whoever runs next.
class ObsTest : public ::testing::Test {
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

TEST_F(ObsTest, DisabledRegistryRecordsNothing) {
    Registry::global().configure(SinkKind::kOff);
    {
        ScopedSpan span("test.noop");
        EXPECT_FALSE(span.active());
    }
    EXPECT_EQ(Registry::global().span_count(), 0u);
}

TEST_F(ObsTest, SpansNestAndTimingIsMonotonic) {
    {
        ScopedSpan outer_span("test.outer");
        EXPECT_TRUE(outer_span.active());
        ScopedSpan inner_span("test.inner");
        inner_span.attr("k", 2.0);
    }
    const auto spans = Registry::global().spans();
    ASSERT_EQ(spans.size(), 2u);
    // Spans record on close, innermost first.
    const auto& inner = spans[0];
    const auto& outer = spans[1];
    EXPECT_EQ(inner.name, "test.inner");
    EXPECT_EQ(outer.name, "test.outer");
    EXPECT_EQ(inner.parent, outer.id);
    EXPECT_EQ(inner.depth, 1u);
    EXPECT_EQ(outer.parent, 0u);
    EXPECT_EQ(outer.depth, 0u);
    // The child's window is contained in the parent's.
    EXPECT_GE(inner.wall_ns, 0);
    EXPECT_GE(inner.cpu_ns, 0);
    EXPECT_GE(inner.start_wall_ns, outer.start_wall_ns);
    EXPECT_GE(outer.wall_ns, inner.wall_ns);
    ASSERT_EQ(inner.attrs.size(), 1u);
    EXPECT_EQ(inner.attrs[0].first, "k");
    EXPECT_DOUBLE_EQ(inner.attrs[0].second, 2.0);
}

TEST_F(ObsTest, ClocksAreMonotonic) {
    const std::int64_t w0 = htd::obs::wall_clock_ns();
    const std::int64_t c0 = htd::obs::thread_cpu_ns();
    volatile double sink = 0.0;
    for (int i = 0; i < 10000; ++i) sink = sink + 1.0;
    EXPECT_GE(htd::obs::wall_clock_ns(), w0);
    EXPECT_GE(htd::obs::thread_cpu_ns(), c0);
}

TEST_F(ObsTest, JsonSinkEmitsSpansDroppedAndWorkOnly) {
    const Json parsed =
        Json::parse(htd::obs::observability_json(Registry::global()).dump());
    // No spans were dropped, but the count is always surfaced.
    EXPECT_DOUBLE_EQ(parsed.at("spans_dropped").number(), 0.0);
    // Work counters are the only metric kind.
    const Json& metrics = parsed.at("metrics");
    ASSERT_EQ(metrics.members().size(), 1u);
    EXPECT_TRUE(metrics.contains("work"));
}

TEST_F(ObsTest, SpanStorageIsCappedAndCountsDrops) {
    constexpr std::size_t kExtra = 10;
    for (std::size_t i = 0; i < Registry::kMaxStoredSpans + kExtra; ++i) {
        ScopedSpan span("test.capped");
    }
    auto& reg = Registry::global();
    EXPECT_EQ(reg.span_count(), Registry::kMaxStoredSpans);
    EXPECT_DOUBLE_EQ(reg.spans_dropped(), static_cast<double>(kExtra));

    // The JSON snapshot surfaces the drop as a top-level field.
    const Json parsed = Json::parse(htd::obs::observability_json(reg).dump());
    EXPECT_DOUBLE_EQ(parsed.at("spans_dropped").number(),
                     static_cast<double>(kExtra));

    // reset() starts the count over with the stored spans.
    reg.reset();
    EXPECT_DOUBLE_EQ(reg.spans_dropped(), 0.0);
}

TEST_F(ObsTest, JsonSinkRoundTripsThroughParser) {
    auto& reg = Registry::global();
    {
        ScopedSpan span("test.roundtrip");
        span.attr("samples", 42.0);
        reg.work_add("work.test.rt_evals", 2.0);
    }
    const Json parsed = Json::parse(htd::obs::observability_json(reg).dump(2));
    const Json& spans = parsed.at("spans");
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans.at(0).at("name").str(), "test.roundtrip");
    EXPECT_DOUBLE_EQ(spans.at(0).at("attrs").at("samples").number(), 42.0);
    EXPECT_GE(spans.at(0).at("wall_ns").number(), 0.0);
    EXPECT_DOUBLE_EQ(
        parsed.at("metrics").at("work").at("work.test.rt_evals").number(), 2.0);
}

TEST_F(ObsTest, RunReportWritesParseableFile) {
    {
        ScopedSpan span("test.report_span");
    }
    htd::obs::RunReport report("obs_test");
    Json section = Json::object();
    section.set("k", 1);
    report.set("section", std::move(section));
    report.capture_observability();

    const std::string path =
        (std::filesystem::temp_directory_path() / "htd_obs_test_report.json").string();
    report.write(path);
    const Json parsed = Json::parse_file(path);
    std::filesystem::remove(path);
    EXPECT_EQ(parsed.at("run").str(), "obs_test");
    EXPECT_EQ(parsed.at("schema").str(), "htd.run_report.v3");
    EXPECT_DOUBLE_EQ(parsed.at("section").at("k").number(), 1.0);
    const Json& spans = parsed.at("observability").at("spans");
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans.at(0).at("name").str(), "test.report_span");
}

TEST_F(ObsTest, WorkCountersAccumulateAndResetAsFirstClassMetrics) {
    auto& reg = Registry::global();
    reg.work_add("work.test.kernel_evals", 100.0);
    reg.work_add("work.test.kernel_evals", 150.0);
    reg.work_add("work.test.samples", 8.0);
    EXPECT_DOUBLE_EQ(reg.work_value("work.test.kernel_evals"), 250.0);
    EXPECT_DOUBLE_EQ(reg.work_value("work.test.missing"), 0.0);
    const auto works = reg.works();
    ASSERT_EQ(works.size(), 2u);
    EXPECT_DOUBLE_EQ(works.at("work.test.samples"), 8.0);

    // Work counters land in the "work" section of the JSON sink.
    const Json metrics = Json::parse(htd::obs::metrics_json(reg).dump(2));
    EXPECT_DOUBLE_EQ(metrics.at("work").at("work.test.kernel_evals").number(),
                     250.0);

    reg.reset();
    EXPECT_TRUE(reg.works().empty());

    // A disabled registry drops work like it drops spans.
    reg.configure(SinkKind::kOff);
    reg.work_add("work.test.kernel_evals", 5.0);
    EXPECT_DOUBLE_EQ(reg.work_value("work.test.kernel_evals"), 0.0);
}

TEST_F(ObsTest, SinkKindFromEnvNamesValidValuesOnMisconfiguration) {
    using htd::obs::sink_kind_from_env;
    EXPECT_EQ(sink_kind_from_env(""), SinkKind::kOff);
    EXPECT_EQ(sink_kind_from_env("off"), SinkKind::kOff);
    EXPECT_EQ(sink_kind_from_env("json"), SinkKind::kJson);

    // "text" is not a sink: spans reach a trace file or a run report.
    for (const char* invalid : {"verbose", "text"}) {
        std::string error;
        EXPECT_EQ(sink_kind_from_env(invalid, &error), SinkKind::kOff);
        const std::string quoted = std::string("'").append(invalid).append("'");
        EXPECT_NE(error.find(quoted), std::string::npos);
        // The warning must name every valid spelling — it is the only clue
        // the user gets for a typo'd HTD_OBS.
        EXPECT_NE(error.find("off, json"), std::string::npos) << invalid;
    }
}

TEST_F(ObsTest, BoolEnvValueNamesValidValuesOnMisconfiguration) {
    // The boolean observability toggle HTD_OBS_NORMALIZE gets the same
    // typo diagnostics a misspelled HTD_OBS gets.
    using htd::obs::bool_env_value;
    EXPECT_FALSE(bool_env_value("HTD_OBS_NORMALIZE", ""));
    EXPECT_FALSE(bool_env_value("HTD_OBS_NORMALIZE", "0"));

    std::string error;
    EXPECT_TRUE(bool_env_value("HTD_OBS_NORMALIZE", "1", &error));
    EXPECT_TRUE(error.empty());

    // A typo is treated as off, and the warning names the variable, the
    // bad value, and every valid spelling.
    EXPECT_FALSE(bool_env_value("HTD_OBS_NORMALIZE", "yes", &error));
    EXPECT_NE(error.find("HTD_OBS_NORMALIZE"), std::string::npos);
    EXPECT_NE(error.find("'yes'"), std::string::npos);
    EXPECT_NE(error.find("0, 1"), std::string::npos);
}

TEST_F(ObsTest, JsonSinkEscapesHostileNamesLosslessly) {
    // Span/work-counter names and attr keys with control characters, embedded
    // quotes/backslashes, and non-ASCII UTF-8 must survive the dump ->
    // RFC 8259 parse round trip byte-for-byte.
    const std::string hostile_span = "test.\"quoted\"\\back\nslash\tname";
    const std::string hostile_attr = "attr\x01with\x1f controls";
    const std::string hostile_work = "work.kärnel.λ→µ\x7f";
    auto& reg = Registry::global();
    {
        ScopedSpan span(hostile_span);
        span.attr(hostile_attr, 1.5);
    }
    reg.work_add(hostile_work, 7.0);

    const Json parsed = Json::parse(htd::obs::observability_json(reg).dump(2));
    const Json& span = parsed.at("spans").at(0);
    EXPECT_EQ(span.at("name").str(), hostile_span);
    EXPECT_DOUBLE_EQ(span.at("attrs").at(hostile_attr).number(), 1.5);
    EXPECT_DOUBLE_EQ(parsed.at("metrics").at("work").at(hostile_work).number(),
                     7.0);
}

TEST_F(ObsTest, SpanRecordsCarryThreadIndex) {
    { ScopedSpan span("test.thread_stamp"); }
    const auto spans = Registry::global().spans();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_GT(spans[0].thread, 0u);
    EXPECT_EQ(spans[0].thread, Registry::current_thread_index());
    const Json doc = Json::parse(htd::obs::spans_json(Registry::global()).dump(2));
    EXPECT_DOUBLE_EQ(doc.at(0).at("thread").number(),
                     static_cast<double>(spans[0].thread));
}

TEST_F(ObsTest, PipelineRunReportCoversAllBoundaries) {
    namespace core = htd::core;
    core::ExperimentConfig config;
    config.n_chips = 8;
    config.pipeline.synthetic_samples = 5000;

    const htd::silicon::DuttDataset measured = core::measure_lot(config);
    const std::unique_ptr<core::GoldenFreePipeline> pipeline =
        core::calibrate_pipeline(config, measured.pcms);

    const htd::obs::RunReport report =
        core::pipeline_run_report(*pipeline, "obs_pipeline_test", &measured);
    const Json parsed = Json::parse(report.json().dump());
    EXPECT_EQ(parsed.at("run").str(), "obs_pipeline_test");

    const Json& boundaries = parsed.at("boundaries");
    ASSERT_EQ(boundaries.size(), 5u);
    std::set<std::string> names;
    for (const Json& entry : boundaries.elements()) {
        names.insert(entry.at("boundary").str());
        EXPECT_GT(entry.at("support_vectors").number(), 0.0);
        EXPECT_GT(entry.at("dataset_rows").number(), 0.0);
        EXPECT_TRUE(entry.contains("metrics"));
        EXPECT_GE(entry.at("metrics").at("accuracy").number(), 0.0);
    }
    EXPECT_EQ(names, (std::set<std::string>{"B1", "B2", "B3", "B4", "B5"}));

    EXPECT_TRUE(parsed.contains("calibration"));
    EXPECT_GT(parsed.at("calibration").at("kmm_effective_sample_size").number(), 0.0);

    // The timed stage spans landed in the observability section.
    std::set<std::string> span_names;
    for (const Json& span : parsed.at("observability").at("spans").elements()) {
        span_names.insert(span.at("name").str());
    }
    EXPECT_TRUE(span_names.count("pipeline.stage1_premanufacturing"));
    EXPECT_TRUE(span_names.count("pipeline.stage2_silicon"));
    EXPECT_TRUE(span_names.count("pipeline.monte_carlo"));
    EXPECT_TRUE(span_names.count("mars.bank_fit"));
    EXPECT_TRUE(span_names.count("kmm.calibrate"));
}

}  // namespace
