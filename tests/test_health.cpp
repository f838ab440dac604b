/// Statistical health probes (pipeline/health.*): exported two-sample statistics
/// against offline-computed references, drift-detector behavior on synthetic
/// batches, probe thresholds, pipeline wiring, and the committed quickstart
/// artifact.

#include "pipeline/health.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
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

TEST(ResidualProbe, InflatedIncomingResidualsEscalate) {
    linalg::Matrix train(50, 2);
    linalg::Matrix incoming(50, 2);
    rng::Rng rng(7);
    for (std::size_t r = 0; r < 50; ++r) {
        for (std::size_t c = 0; c < 2; ++c) {
            train(r, c) = std::abs(rng.normal(0.0, 0.1));
            incoming(r, c) = train(r, c);
        }
    }
    EXPECT_EQ(core::probe_regression_residuals(train, incoming).level,
              HealthLevel::kHealthy);
    for (std::size_t r = 0; r < 50; ++r) {
        for (std::size_t c = 0; c < 2; ++c) incoming(r, c) = train(r, c) * 40.0;
    }
    const ProbeResult probe = core::probe_regression_residuals(train, incoming);
    EXPECT_EQ(probe.level, HealthLevel::kCritical) << probe.detail;
}

// --- band edges: a value just inside and just past each documented edge ----

/// One-column KDE fixture: the source spans [0, 1]; of `n` synthetic
/// samples, `outside` sit at 1.5 (tail mass, range expansion 1.5x) and the
/// rest at 0.5, unless `far` is set, in which case one sample at 0 and one
/// at `far` stretch the synthetic range to `far` times the source range.
ProbeResult kde_probe(std::size_t n, std::size_t outside, double far = 0.0) {
    const linalg::Matrix source{{0.0}, {1.0}};
    linalg::Matrix synthetic(n, 1);
    for (std::size_t r = 0; r < n; ++r) synthetic(r, 0) = r < outside ? 1.5 : 0.5;
    if (far > 0.0) {
        synthetic(0, 0) = 0.0;
        synthetic(1, 0) = far;
    }
    return core::probe_kde("kde.test", source, synthetic, 0.1);
}

TEST(KdeProbe, TailMassBandEdges) {
    // DESIGN §10: tail mass above 0.25 warns, above 0.50 is critical.
    EXPECT_EQ(kde_probe(1000, 249).level, HealthLevel::kHealthy);
    const ProbeResult warn = kde_probe(1000, 251);
    EXPECT_EQ(warn.level, HealthLevel::kWarn);
    EXPECT_EQ(warn.detail, "mean per-axis tail mass 0.251000 above 0.250000");
    EXPECT_EQ(kde_probe(1000, 499).level, HealthLevel::kWarn);
    const ProbeResult critical = kde_probe(1000, 501);
    EXPECT_EQ(critical.level, HealthLevel::kCritical);
    EXPECT_EQ(critical.detail, "mean per-axis tail mass 0.501000 above 0.500000");
}

TEST(KdeProbe, RangeExpansionBandEdges) {
    // DESIGN §10: synthetic range above 3x the source range warns, above
    // 6x is critical.
    EXPECT_EQ(kde_probe(1000, 0, 2.99).level, HealthLevel::kHealthy);
    const ProbeResult warn = kde_probe(1000, 0, 3.01);
    EXPECT_EQ(warn.level, HealthLevel::kWarn);
    EXPECT_EQ(warn.detail, "synthetic range expansion 3.010000x above 3.000000x");
    EXPECT_EQ(kde_probe(1000, 0, 5.99).level, HealthLevel::kWarn);
    const ProbeResult critical = kde_probe(1000, 0, 6.01);
    EXPECT_EQ(critical.level, HealthLevel::kCritical);
    EXPECT_EQ(critical.detail,
              "synthetic range expansion 6.010000x above 6.000000x");
}

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

TEST(MarsProbe, MeanR2BandEdges) {
    // DESIGN §10: a mean training R^2 below 0.50 warns, below 0.20 is
    // critical.
    const linalg::Matrix residuals{{0.1, 0.2}, {0.3, 0.4}};
    const auto level = [&](std::vector<double> r2) {
        return core::probe_mars_fit(r2, residuals).level;
    };
    EXPECT_EQ(level({0.51, 0.51}), HealthLevel::kHealthy);
    EXPECT_EQ(level({0.49, 0.49}), HealthLevel::kWarn);
    EXPECT_EQ(level({0.21, 0.21}), HealthLevel::kWarn);
    EXPECT_EQ(level({0.19, 0.19}), HealthLevel::kCritical);
    const ProbeResult critical =
        core::probe_mars_fit(std::vector<double>{0.19, 0.19}, residuals);
    EXPECT_EQ(critical.detail, "mean training R^2 0.190000 below 0.200000");
    const ProbeResult warn =
        core::probe_mars_fit(std::vector<double>{0.49, 0.49}, residuals);
    EXPECT_EQ(warn.detail, "mean training R^2 0.490000 below 0.500000");
}

TEST(CalibrationProbe, ShiftBandEdges) {
    // DESIGN §10: a kernel mean shift above 8 reference sigmas warns, above
    // 16 is critical. The reference column {-1, 0, 1} has unit variance, so
    // the shift norm is the shift in sigmas.
    const linalg::Matrix reference{{-1.0}, {0.0}, {1.0}};
    const auto probe = [&](double shift) {
        return core::probe_calibration(reference, linalg::Vector{shift}, 3);
    };
    EXPECT_EQ(probe(7.99).level, HealthLevel::kHealthy);
    const ProbeResult warn = probe(8.01);
    EXPECT_EQ(warn.level, HealthLevel::kWarn);
    EXPECT_EQ(warn.detail,
              "calibration shift 8.010000 reference sigmas (above 8.000000)");
    EXPECT_EQ(probe(15.99).level, HealthLevel::kWarn);
    const ProbeResult critical = probe(16.01);
    EXPECT_EQ(critical.level, HealthLevel::kCritical);
    EXPECT_EQ(critical.detail,
              "calibration shift 16.010000 reference sigmas (above 16.000000)");
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

core::ExperimentConfig small_config() {
    core::ExperimentConfig config;
    config.n_chips = 12;
    config.pipeline.monte_carlo_samples = 60;
    config.pipeline.synthetic_samples = 2000;
    return config;
}

TEST(PipelineHealth, CleanRunReportsAllProbesHealthy) {
    const core::ExperimentConfig config = small_config();
    rng::Rng master(config.seed);
    rng::Rng fab_rng = master.split();
    rng::Rng sim_rng = master.split();
    rng::Rng pipe_rng = master.split();
    const silicon::DuttDataset measured =
        core::fabricate_and_measure(config, fab_rng);
    const core::ProcessPair processes =
        core::make_process_pair(config.process_shift_sigma);
    core::GoldenFreePipeline pipeline(
        config.pipeline, silicon::SpiceSimulator(config.platform, processes.spice));
    pipeline.run_premanufacturing(sim_rng);
    pipeline.run_silicon_stage(measured.pcms, pipe_rng);
    pipeline.probe_incoming(measured);

    const core::HealthMonitor& health = pipeline.health();
    EXPECT_EQ(health.verdict(), HealthLevel::kHealthy);
    for (const char* name : {"mars_fit", "kmm_weights", "calibration", "drift.pcm",
                             "kde.s2", "kde.s5", "boundaries",
                             "regression_residuals", "svm.B1", "svm.B5"}) {
        const std::optional<ProbeResult> probe = health.find(name);
        ASSERT_TRUE(probe.has_value()) << name;
        EXPECT_EQ(probe->level, HealthLevel::kHealthy)
            << name << ": " << probe->detail;
    }
}

TEST(PipelineHealth, ForcedDriftAndCollapseDegradeVerdictWithPerChannelKs) {
    core::ExperimentConfig config = small_config();
    // The E14/E15 forcing: an impossible ESS floor guarantees the KMM
    // collapse fallback, and the DUTT PCMs get an extra >= 1 sigma shift.
    config.pipeline.kmm_min_effective_sample_size = 1e9;
    rng::Rng master(config.seed);
    rng::Rng fab_rng = master.split();
    rng::Rng sim_rng = master.split();
    rng::Rng pipe_rng = master.split();
    silicon::DuttDataset measured = core::fabricate_and_measure(config, fab_rng);
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

    const core::ProcessPair processes =
        core::make_process_pair(config.process_shift_sigma);
    core::GoldenFreePipeline pipeline(
        config.pipeline, silicon::SpiceSimulator(config.platform, processes.spice));
    pipeline.run_premanufacturing(sim_rng);
    pipeline.run_silicon_stage(measured.pcms, pipe_rng);

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
    // forensic surfaces at once: the htd.run_report.v2 "health" section
    // (the boundaries probe) and an htd.events.v1 boundary_fallback event
    // in the decision journal (DESIGN.md §15).
    core::ExperimentConfig config = small_config();
    config.pipeline.kmm_min_effective_sample_size = 1e9;  // force collapse

    obs::EventJournal& journal = obs::EventJournal::global();
    journal.enable_memory();

    rng::Rng master(config.seed);
    rng::Rng fab_rng = master.split();
    rng::Rng sim_rng = master.split();
    rng::Rng pipe_rng = master.split();
    const silicon::DuttDataset measured =
        core::fabricate_and_measure(config, fab_rng);
    const core::ProcessPair processes =
        core::make_process_pair(config.process_shift_sigma);
    core::GoldenFreePipeline pipeline(
        config.pipeline,
        silicon::SpiceSimulator(config.platform, processes.spice));
    pipeline.run_premanufacturing(sim_rng);
    pipeline.run_silicon_stage(measured.pcms, pipe_rng);
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
        if (event.kind != "boundary_fallback") continue;
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
    EXPECT_EQ(doc.at("schema").str(), "htd.run_report.v2");
    EXPECT_EQ(doc.at("run").str(), "quickstart");
    ASSERT_TRUE(doc.contains("health"));
    EXPECT_EQ(doc.at("health").at("verdict").str(), "healthy");
    ASSERT_TRUE(doc.contains("boundaries"));
    ASSERT_TRUE(doc.contains("degradation"));
    ASSERT_TRUE(doc.contains("observability"));
    // v2 emits estimated quantiles for every latency histogram.
    for (const auto& [name, hist] :
         doc.at("observability").at("metrics").at("histograms").members()) {
        EXPECT_TRUE(hist.contains("p50")) << name;
        EXPECT_TRUE(hist.contains("p90")) << name;
        EXPECT_TRUE(hist.contains("p99")) << name;
    }
    EXPECT_TRUE(doc.at("observability").contains("spans_dropped"));
}

}  // namespace
