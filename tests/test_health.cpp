/// Statistical health probes (pipeline/health.*): exported two-sample statistics
/// against offline-computed references, drift-detector behavior on synthetic
/// batches, probe thresholds, pipeline wiring, and the committed quickstart
/// artifact.

#include "pipeline/health.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/journal.hpp"
#include "pipeline/experiment.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/report.hpp"
#include "io/json.hpp"
#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace {

using namespace htd;
using core::HealthLevel;
using core::HealthMonitor;
using core::ProbeResult;

TEST(HealthLevel, NamesRoundTrip) {
    for (const HealthLevel level :
         {HealthLevel::kHealthy, HealthLevel::kWarn, HealthLevel::kDegraded,
          HealthLevel::kCritical}) {
        EXPECT_EQ(core::health_level_from_name(core::health_level_name(level)), level);
    }
    EXPECT_THROW((void)core::health_level_from_name("bogus"), std::invalid_argument);
    EXPECT_EQ(core::worse(HealthLevel::kWarn, HealthLevel::kDegraded),
              HealthLevel::kDegraded);
    EXPECT_EQ(core::worse(HealthLevel::kCritical, HealthLevel::kHealthy),
              HealthLevel::kCritical);
}

// --- two-sample statistics vs offline references ----------------------------

TEST(TwoSampleStats, KsStatisticMatchesOfflineReference) {
    // Reference computed offline by walking the pooled empirical CDFs:
    // D = sup |F_a - F_b| = 2/7 for these samples.
    const std::vector<double> a{0.12, 0.55, 0.93, 1.40, 2.10, 2.75, 3.30};
    const std::vector<double> b{0.30, 0.95, 1.15, 1.85, 2.60};
    EXPECT_NEAR(core::ks_statistic(a, b), 0.2857142857142857, 1e-12);
    EXPECT_NEAR(core::scaled_ks_statistic(0.2857142857142857, a.size(), b.size()),
                0.48795003647426655, 1e-12);
    // Symmetry and the identical-sample case.
    EXPECT_NEAR(core::ks_statistic(b, a), 0.2857142857142857, 1e-12);
    EXPECT_EQ(core::ks_statistic(a, a), 0.0);
    EXPECT_THROW((void)core::ks_statistic({}, a), std::invalid_argument);
    EXPECT_THROW((void)core::scaled_ks_statistic(0.5, 0, 3), std::invalid_argument);
}

TEST(TwoSampleStats, KsStatisticDisjointSupportsIsOne) {
    const std::vector<double> lo{0.0, 0.1, 0.2};
    const std::vector<double> hi{5.0, 5.1, 5.2, 5.3};
    EXPECT_NEAR(core::ks_statistic(lo, hi), 1.0, 1e-12);
}

TEST(TwoSampleStats, EnergyDistanceMatchesOfflineReference) {
    // V-statistic estimate computed offline for these row sets.
    const linalg::Matrix a{{0.0, 0.0}, {1.0, 0.5}, {2.0, 1.5}, {0.5, 2.0}};
    const linalg::Matrix b{{0.5, 0.25}, {1.5, 1.0}, {2.5, 2.0}};
    EXPECT_NEAR(core::energy_distance(a, b), 0.4490105346972, 1e-10);
    EXPECT_NEAR(core::energy_coefficient(a, b), 0.15410684218537768, 1e-10);
    // Identical samples agree exactly; mismatched shapes are rejected.
    EXPECT_NEAR(core::energy_distance(a, a), 0.0, 1e-12);
    EXPECT_EQ(core::energy_coefficient(a, a), 0.0);
    const linalg::Matrix one_col{{1.0}, {2.0}};
    EXPECT_THROW((void)core::energy_distance(a, one_col), std::invalid_argument);
    EXPECT_EQ(core::energy_coefficient(a, one_col), 0.0);
}

TEST(TwoSampleStats, WeightEntropyRatio) {
    const std::vector<double> uniform(8, 0.25);
    EXPECT_NEAR(core::weight_entropy_ratio(uniform), 1.0, 1e-12);

    std::vector<double> collapsed(8, 0.0);
    collapsed[3] = 5.0;
    EXPECT_NEAR(core::weight_entropy_ratio(collapsed), 0.0, 1e-12);

    EXPECT_EQ(core::weight_entropy_ratio({}), 0.0);
}

// --- drift detector on synthetic batches ------------------------------------

linalg::Matrix gaussian_batch(rng::Rng& rng, std::size_t n, double mean,
                              double sigma) {
    linalg::Matrix out(n, 2);
    for (std::size_t r = 0; r < n; ++r) {
        out(r, 0) = rng.normal(mean, sigma);
        out(r, 1) = rng.normal(mean * 0.5, sigma * 2.0);
    }
    return out;
}

TEST(DriftProbe, SameDistributionStaysBelowWarn) {
    rng::Rng rng(0xd21f7'5eedULL);
    const linalg::Matrix reference = gaussian_batch(rng, 500, 1.0, 0.3);
    const linalg::Matrix incoming = gaussian_batch(rng, 500, 1.0, 0.3);
    const ProbeResult probe = core::probe_drift("drift.test", reference, incoming);
    EXPECT_EQ(probe.level, HealthLevel::kHealthy) << probe.detail;
}

TEST(DriftProbe, MeanShiftTripsCritical) {
    rng::Rng rng(0xd21f7'5eedULL);
    const linalg::Matrix reference = gaussian_batch(rng, 500, 1.0, 0.3);
    linalg::Matrix incoming = gaussian_batch(rng, 500, 1.0, 0.3);
    for (std::size_t r = 0; r < incoming.rows(); ++r) {
        incoming(r, 0) += 0.45;  // 1.5 sigma mean shift on channel 0
    }
    const ProbeResult probe = core::probe_drift("drift.test", reference, incoming);
    EXPECT_EQ(probe.level, HealthLevel::kCritical) << probe.detail;
}

TEST(DriftProbe, VarianceInflationTripsCritical) {
    rng::Rng rng(0xd21f7'5eedULL);
    const linalg::Matrix reference = gaussian_batch(rng, 500, 1.0, 0.3);
    const linalg::Matrix incoming = gaussian_batch(rng, 500, 1.0, 0.9);
    const ProbeResult probe = core::probe_drift("drift.test", reference, incoming);
    EXPECT_EQ(probe.level, HealthLevel::kCritical) << probe.detail;
}

TEST(DriftProbe, EmitsPerChannelStatistics) {
    rng::Rng rng(1);
    const linalg::Matrix reference = gaussian_batch(rng, 60, 0.0, 1.0);
    const linalg::Matrix incoming = gaussian_batch(rng, 40, 0.0, 1.0);
    const ProbeResult probe = core::probe_drift("drift.test", reference, incoming);
    bool saw_ks_ch0 = false;
    bool saw_ks_ch1 = false;
    bool saw_energy = false;
    for (const auto& [key, value] : probe.values) {
        if (key == "ks_ch0") saw_ks_ch0 = true;
        if (key == "ks_ch1") saw_ks_ch1 = true;
        if (key == "energy_distance") {
            saw_energy = true;
            EXPECT_GE(value, 0.0);
        }
    }
    EXPECT_TRUE(saw_ks_ch0);
    EXPECT_TRUE(saw_ks_ch1);
    EXPECT_TRUE(saw_energy);
    EXPECT_EQ(probe.values.front().first, "channels");
}

TEST(DriftProbe, DegenerateInputsAreCritical) {
    const linalg::Matrix some{{1.0, 2.0}};
    const ProbeResult probe = core::probe_drift("drift.test", some, linalg::Matrix{});
    EXPECT_EQ(probe.level, HealthLevel::kCritical);
}

// --- other probes ------------------------------------------------------------

TEST(KmmProbe, UniformWeightsHealthyCollapsedCritical) {
    const linalg::Vector uniform(100, 1.0);
    EXPECT_EQ(core::probe_kmm_weights(uniform).level, HealthLevel::kHealthy);

    linalg::Vector collapsed(100, 1e-9);
    collapsed[0] = 5.0;
    const ProbeResult probe = core::probe_kmm_weights(collapsed);
    EXPECT_EQ(probe.level, HealthLevel::kCritical) << probe.detail;

    EXPECT_EQ(core::probe_kmm_weights({}).level, HealthLevel::kCritical);
}

// --- band edges: a value just inside and just past each documented edge ----

/// SVM margin probe over 1000 training decision values, `outside` of them
/// negative, with `support_vectors` of 100 trained samples and nu = 0.1.
ProbeResult svm_probe(std::size_t support_vectors, std::size_t outside) {
    std::vector<double> decisions(1000, 1.0);
    for (std::size_t i = 0; i < outside; ++i) decisions[i] = -1.0;
    return core::probe_svm_margins("svm.test", decisions, 0.1,
                                             support_vectors, 100);
}

TEST(SvmProbe, SupportVectorFractionBandEdges) {
    // DESIGN §10: a support-vector fraction above 0.75 warns, above 0.95 is
    // critical.
    EXPECT_EQ(svm_probe(74, 0).level, HealthLevel::kHealthy);
    const ProbeResult warn = svm_probe(76, 0);
    EXPECT_EQ(warn.level, HealthLevel::kWarn);
    EXPECT_EQ(warn.detail, "support-vector fraction 0.760000 above 0.750000");
    EXPECT_EQ(svm_probe(94, 0).level, HealthLevel::kWarn);
    const ProbeResult critical = svm_probe(96, 0);
    EXPECT_EQ(critical.level, HealthLevel::kCritical);
    EXPECT_EQ(critical.detail, "support-vector fraction 0.960000 above 0.950000");
}

TEST(SvmProbe, OutlierExcessBandEdges) {
    // DESIGN §10: more than 3x nu of the training points left outside
    // warns, more than 6x nu is critical.
    EXPECT_EQ(svm_probe(10, 299).level, HealthLevel::kHealthy);
    const ProbeResult warn = svm_probe(10, 301);
    EXPECT_EQ(warn.level, HealthLevel::kWarn);
    EXPECT_EQ(warn.detail, "0.301000 of training points left outside vs nu 0.100000");
    EXPECT_EQ(svm_probe(10, 599).level, HealthLevel::kWarn);
    const ProbeResult critical = svm_probe(10, 601);
    EXPECT_EQ(critical.level, HealthLevel::kCritical);
    EXPECT_EQ(critical.detail,
              "0.601000 of training points left outside vs nu 0.100000");
}

TEST(MonitorState, RecordReplacesSameNameAndAggregatesVerdict) {
    HealthMonitor monitor;
    EXPECT_EQ(monitor.verdict(), HealthLevel::kHealthy);

    ProbeResult warn;
    warn.name = "drift.pcm";
    warn.escalate(HealthLevel::kWarn, "first pass");
    monitor.record(warn);
    EXPECT_EQ(monitor.verdict(), HealthLevel::kWarn);
    EXPECT_EQ(monitor.probes().size(), 1u);

    ProbeResult healthy;
    healthy.name = "drift.pcm";
    monitor.record(healthy);  // stage re-ran: same-name probe is replaced
    EXPECT_EQ(monitor.verdict(), HealthLevel::kHealthy);
    EXPECT_EQ(monitor.probes().size(), 1u);

    ProbeResult critical;
    critical.name = "kmm_weights";
    critical.escalate(HealthLevel::kCritical, "collapse");
    monitor.record(critical);
    EXPECT_EQ(monitor.verdict(), HealthLevel::kCritical);
    ASSERT_TRUE(monitor.find("kmm_weights").has_value());
    EXPECT_EQ(monitor.find("kmm_weights")->level, HealthLevel::kCritical);
    EXPECT_FALSE(monitor.find("absent").has_value());

    const io::Json doc = monitor.to_json();
    EXPECT_EQ(doc.at("verdict").str(), "critical");
    EXPECT_EQ(doc.at("probes").size(), 2u);

    monitor.clear();
    EXPECT_EQ(monitor.verdict(), HealthLevel::kHealthy);
    EXPECT_TRUE(monitor.probes().empty());
}

// --- pipeline integration ----------------------------------------------------

/// The probes every completed run records, sorted by name.
std::vector<std::string> expected_probe_names() {
    return {"boundaries", "drift.pcm", "kmm_weights", "svm.B1",
            "svm.B2",     "svm.B3",    "svm.B4",      "svm.B5"};
}

core::ExperimentConfig small_config() {
    core::ExperimentConfig config;
    config.n_chips = 12;
    config.pipeline.monte_carlo_samples = 60;
    config.pipeline.synthetic_samples = 2000;
    return config;
}

TEST(PipelineHealth, CleanRunReportsAllProbesHealthy) {
    const core::ExperimentConfig config = small_config();
    const silicon::DuttDataset measured = core::measure_lot(config);
    const std::unique_ptr<core::GoldenFreePipeline> fitted =
        core::calibrate_pipeline(config, measured.pcms);
    const core::GoldenFreePipeline& pipeline = *fitted;

    const core::HealthMonitor& health = pipeline.health();
    EXPECT_EQ(health.verdict(), HealthLevel::kHealthy);
    std::vector<std::string> names;
    for (const ProbeResult& probe : health.probes()) {
        names.push_back(probe.name);
        EXPECT_EQ(probe.level, HealthLevel::kHealthy)
            << probe.name << ": " << probe.detail;
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, expected_probe_names());
}

TEST(PipelineHealth, ForcedDriftAndCollapseDegradeVerdictWithPerChannelKs) {
    core::ExperimentConfig config = small_config();
    // The E14/E15 forcing: an impossible ESS floor guarantees the KMM
    // collapse fallback, and the DUTT PCMs get an extra >= 1 sigma shift.
    config.pipeline.kmm_min_effective_sample_size = 1e9;
    silicon::DuttDataset measured = core::measure_lot(config);
    for (std::size_t c = 0; c < measured.pcms.cols(); ++c) {
        double mean = 0.0;
        for (std::size_t r = 0; r < measured.pcms.rows(); ++r) {
            mean += measured.pcms(r, c);
        }
        mean /= static_cast<double>(measured.pcms.rows());
        double var = 0.0;
        for (std::size_t r = 0; r < measured.pcms.rows(); ++r) {
            const double d = measured.pcms(r, c) - mean;
            var += d * d;
        }
        const double sigma =
            std::sqrt(var / static_cast<double>(measured.pcms.rows() - 1));
        for (std::size_t r = 0; r < measured.pcms.rows(); ++r) {
            measured.pcms(r, c) += 1.5 * sigma;
        }
    }

    const std::unique_ptr<core::GoldenFreePipeline> fitted =
        core::calibrate_pipeline(config, measured.pcms);
    const core::GoldenFreePipeline& pipeline = *fitted;

    ASSERT_TRUE(pipeline.kmm_fallback_applied());
    const core::HealthMonitor& health = pipeline.health();
    EXPECT_GE(static_cast<int>(health.verdict()),
              static_cast<int>(HealthLevel::kDegraded));

    // The health section carries per-channel KS statistics for the drift.
    const std::optional<ProbeResult> drift = health.find("drift.pcm");
    ASSERT_TRUE(drift.has_value());
    bool per_channel_ks = false;
    for (const auto& [key, value] : drift->values) {
        if (key.rfind("ks_ch", 0) == 0) {
            per_channel_ks = true;
            EXPECT_GE(value, 0.0);
            EXPECT_LE(value, 1.0);
        }
    }
    EXPECT_TRUE(per_channel_ks);

    const std::optional<ProbeResult> kmm = health.find("kmm_weights");
    ASSERT_TRUE(kmm.has_value());
    EXPECT_GE(static_cast<int>(kmm->level),
              static_cast<int>(HealthLevel::kDegraded));

    // And the RunReport serializes the verdict under "health".
    const obs::RunReport report =
        core::pipeline_run_report(pipeline, "forced_drift");
    const io::Json& doc = report.json();
    ASSERT_TRUE(doc.contains("health"));
    const HealthLevel reported =
        core::health_level_from_name(doc.at("health").at("verdict").str());
    EXPECT_GE(static_cast<int>(reported), static_cast<int>(HealthLevel::kDegraded));
}

TEST(PipelineHealth, KmmCollapseFallbackVisibleInReportHealthAndJournal) {
    // The B4 -> B3 KMM-collapse fallback must be observable through BOTH
    // forensic surfaces at once: the run report's "health" section
    // (the boundaries probe) and an htd.events.v1 boundary_fallback event
    // in the decision journal (DESIGN.md §15).
    core::ExperimentConfig config = small_config();
    config.pipeline.kmm_min_effective_sample_size = 1e9;  // force collapse

    obs::EventJournal& journal = obs::EventJournal::global();
    journal.enable_memory();

    const silicon::DuttDataset measured = core::measure_lot(config);
    const std::unique_ptr<core::GoldenFreePipeline> fitted =
        core::calibrate_pipeline(config, measured.pcms);
    const core::GoldenFreePipeline& pipeline = *fitted;
    ASSERT_TRUE(pipeline.kmm_fallback_applied());

    // Surface 1: the run report's health section names the degraded B4.
    const obs::RunReport report =
        core::pipeline_run_report(pipeline, "kmm_collapse");
    const io::Json& doc = report.json();
    ASSERT_TRUE(doc.contains("health"));
    bool degraded_boundary_reported = false;
    for (const io::Json& probe : doc.at("health").at("probes").elements()) {
        if (probe.at("name").str() != "boundaries") continue;
        EXPECT_GE(static_cast<int>(
                      core::health_level_from_name(probe.at("level").str())),
                  static_cast<int>(HealthLevel::kDegraded));
        EXPECT_NE(probe.at("detail").str().find("B4 degraded"),
                  std::string::npos)
            << probe.at("detail").str();
        degraded_boundary_reported = true;
    }
    EXPECT_TRUE(degraded_boundary_reported);

    // Surface 2: the journal carries the typed boundary_fallback event
    // with the collapsed effective sample size and the floor it violated.
    bool fallback_journaled = false;
    for (const obs::Event& event : journal.recent()) {
        if (event.kind != obs::EventKind::kBoundaryFallback) continue;
        EXPECT_EQ(event.boundary, "B4");
        bool has_ess = false;
        bool has_floor = false;
        for (const auto& [key, value] : event.values) {
            if (key == "effective_sample_size") has_ess = true;
            if (key == "floor") {
                has_floor = true;
                EXPECT_EQ(value, 1e9);
            }
        }
        EXPECT_TRUE(has_ess);
        EXPECT_TRUE(has_floor);
        fallback_journaled = true;
    }
    EXPECT_TRUE(fallback_journaled);
    journal.close();
}

// --- committed quickstart artifact -------------------------------------------

TEST(CommittedArtifact, QuickstartRunReportParsesWithCurrentSchema) {
    const std::string path =
        std::string(HTD_SOURCE_DIR) + "/quickstart_run_report.json";
    const io::Json doc = io::Json::parse_file(path);
    EXPECT_EQ(doc.at("schema").str(), "htd.run_report.v3");
    EXPECT_EQ(doc.at("run").str(), "quickstart");
    ASSERT_TRUE(doc.contains("health"));
    EXPECT_EQ(doc.at("health").at("verdict").str(), "healthy");
    std::vector<std::string> names;
    for (const io::Json& probe : doc.at("health").at("probes").elements()) {
        names.push_back(probe.at("name").str());
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, expected_probe_names());
    ASSERT_TRUE(doc.contains("boundaries"));
    ASSERT_TRUE(doc.contains("degradation"));
    ASSERT_TRUE(doc.contains("observability"));
    // v3 records each quantity once: the metrics hold only work counters.
    const io::Json& metrics = doc.at("observability").at("metrics");
    ASSERT_EQ(metrics.members().size(), 1u);
    EXPECT_TRUE(metrics.contains("work"));
    EXPECT_FALSE(metrics.at("work").members().empty());
    EXPECT_TRUE(doc.at("observability").contains("spans_dropped"));
}

}  // namespace
