/// End-to-end integration tests: a reduced-size replica of the paper's
/// experiment must reproduce the *qualitative* Table-1 shape, and the full
/// default experiment must reproduce the quantitative one. These are the
/// repository's acceptance tests.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "pipeline/experiment.hpp"
#include "pipeline/report.hpp"

namespace {

using htd::core::ExperimentConfig;
using htd::core::ExperimentResult;
using htd::core::run_experiment;

/// Reduced-size experiment so the whole file stays fast.
ExperimentConfig fast_config(std::uint64_t seed = 0xfeedULL) {
    ExperimentConfig cfg;
    cfg.seed = seed;
    cfg.pipeline.synthetic_samples = 20000;
    return cfg;
}

TEST(Integration, DefaultExperimentReproducesTable1Shape) {
    const ExperimentResult r = run_experiment(ExperimentConfig{});

    // FP = 0/80 for every boundary (no Trojan-infested device inside any
    // trusted region) — the paper's headline security property.
    for (const auto& m : r.table1) {
        EXPECT_EQ(m.false_positives, 0u) << "boundary leaked Trojan devices";
        EXPECT_EQ(m.trojan_infested_total, 80u);
        EXPECT_EQ(m.trojan_free_total, 40u);
    }

    // B1/B2 are useless (process shift): every Trojan-free device rejected.
    EXPECT_EQ(r.table1[0].false_negatives, 40u);
    EXPECT_EQ(r.table1[1].false_negatives, 40u);

    // B3 partial, B4 at least as good, B5 close to the golden baseline —
    // the paper's monotone improvement.
    EXPECT_LT(r.table1[2].false_negatives, 40u);
    EXPECT_LE(r.table1[3].false_negatives, r.table1[2].false_negatives);
    EXPECT_LE(r.table1[4].false_negatives, r.table1[3].false_negatives);
    EXPECT_LE(r.table1[4].false_negatives, 10u);

    // Paper values: S3 24/40, S4 18/40, S5 3/40. Allow a band around them.
    EXPECT_NEAR(static_cast<double>(r.table1[2].false_negatives), 24.0, 8.0);
    EXPECT_NEAR(static_cast<double>(r.table1[3].false_negatives), 18.0, 8.0);

    // Golden-chip baseline is near-perfect, as in [12].
    EXPECT_EQ(r.golden_baseline.false_positives, 0u);
    EXPECT_LE(r.golden_baseline.false_negatives, 10u);

    // Diagnostics sane.
    EXPECT_GT(r.pipeline->regressions().mean_r_squared(), 0.7);
    ASSERT_TRUE(r.pipeline->calibration_result().has_value());
    EXPECT_GT(r.pipeline->calibration_result()->iterations, 0u);
}

TEST(Integration, MeasuredPopulationShape) {
    const ExperimentResult r = run_experiment(fast_config());
    EXPECT_EQ(r.measured.size(), 120u);
    EXPECT_EQ(r.measured.fingerprints.cols(), 6u);
    EXPECT_EQ(r.measured.pcms.cols(), 1u);
    EXPECT_EQ(r.measured.trojan_free_indices().size(), 40u);
}

TEST(Integration, DeterministicForSeed) {
    const ExperimentResult a = run_experiment(fast_config(123));
    const ExperimentResult b = run_experiment(fast_config(123));
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(a.table1[i].false_positives, b.table1[i].false_positives);
        EXPECT_EQ(a.table1[i].false_negatives, b.table1[i].false_negatives);
    }
    EXPECT_EQ(a.measured.fingerprints, b.measured.fingerprints);
}

TEST(Integration, SeedChangesPopulationNotShape) {
    const ExperimentResult r = run_experiment(fast_config(777));
    // Different lot, same qualitative result.
    EXPECT_EQ(r.table1[0].false_negatives, 40u);
    for (const auto& m : r.table1) EXPECT_LE(m.false_positives, 4u);
    EXPECT_LE(r.table1[4].false_negatives, 14u);
}

TEST(Integration, DatasetsExportedForFig4) {
    using htd::core::Boundary;
    const ExperimentResult r = run_experiment(fast_config());
    const htd::core::GoldenFreePipeline& p = *r.pipeline;
    EXPECT_EQ(p.dataset(Boundary::kB1).cols(), 6u);    // S1
    EXPECT_EQ(p.dataset(Boundary::kB5).cols(), 6u);    // S5
    EXPECT_GT(p.dataset(Boundary::kB2).rows(),         // S2 enhanced
              p.dataset(Boundary::kB1).rows());
    EXPECT_EQ(p.dataset(Boundary::kB3).rows(), 120u);  // S3 from DUTTs
}

TEST(Integration, SmallerChipCountStillRuns) {
    ExperimentConfig cfg = fast_config();
    cfg.n_chips = 12;
    const ExperimentResult r = run_experiment(cfg);
    EXPECT_EQ(r.measured.size(), 36u);
    EXPECT_EQ(r.table1[0].trojan_free_total, 12u);
}

TEST(Integration, WithoutKdeTailEnhancementB5DegradesToB4) {
    // Ablation hook: shrinking the KDE bandwidth to near-zero makes S5
    // essentially a resampled S4, so B5 can no longer cover the residual
    // spread much better than B4.
    ExperimentConfig cfg = fast_config();
    cfg.pipeline.kde_bandwidth = 1e-3;
    const ExperimentResult r = run_experiment(cfg);
    EXPECT_GE(r.table1[4].false_negatives + 6u, r.table1[3].false_negatives);
}

TEST(Integration, ShiftMagnitudeSweepKeepsSecurityProperty) {
    // Whatever the foundry drift magnitude, no boundary may admit more than
    // a handful of Trojan-infested devices (the FP side is the security
    // property; the FN side legitimately varies with the drift).
    for (const double shift : {2.0, 4.5, 6.0}) {
        ExperimentConfig cfg = fast_config();
        cfg.process_shift_sigma = shift;
        const ExperimentResult r = run_experiment(cfg);
        for (const auto& m : r.table1) {
            EXPECT_LE(m.false_positives, 6u) << "shift " << shift;
        }
        // The KMM/KDE stages keep helping: B5 never does worse than B3 by
        // more than a small margin.
        EXPECT_LE(r.table1[4].false_negatives, r.table1[2].false_negatives + 4u)
            << "shift " << shift;
    }
}

/// FNV-1a over the little-endian bytes of each decision value's bit pattern.
std::uint64_t fnv1a_bits(const htd::linalg::Vector& v) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < v.size(); ++i) {
        const auto bits = std::bit_cast<std::uint64_t>(v[i]);
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (bits >> (8 * byte)) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

TEST(Integration, CanonicalLotDecisionValuesArePinned) {
    // The canonical fab -> sim -> pipe stream order at a reduced budget
    // (10 chips, 40 MC samples, 3000 draws). Every bit of every boundary's
    // decision values over the lot is pinned, plus the Table-1 counts, so a
    // change to how the experiment splits its streams or wires its stages
    // fails here even when the qualitative Table-1 shape survives.
    ExperimentConfig config;
    config.n_chips = 10;
    config.pipeline.monte_carlo_samples = 40;
    config.pipeline.synthetic_samples = 3000;

    const htd::silicon::DuttDataset devices = htd::core::measure_lot(config);
    const std::unique_ptr<htd::core::GoldenFreePipeline> fitted =
        htd::core::calibrate_pipeline(config, devices.pcms);
    const htd::core::GoldenFreePipeline& pipeline = *fitted;

    struct Pin {
        std::uint64_t hash;
        std::size_t fp;
        std::size_t fn;
    };
    constexpr Pin kPins[] = {
        {0xa1740a23fcc44a51ULL, 0, 10},  // B1
        {0xcfcaea923c478c4dULL, 0, 10},  // B2
        {0xe18f0ed8cc8f77ebULL, 0, 3},   // B3
        {0x3e6d82c84a375b5fULL, 0, 4},   // B4
        {0xcdc39d1f0da1096eULL, 0, 2},   // B5
    };
    ASSERT_EQ(devices.size(), 30u);
    for (std::size_t i = 0; i < htd::core::kAllBoundaries.size(); ++i) {
        const htd::core::Boundary b = htd::core::kAllBoundaries[i];
        SCOPED_TRACE(htd::core::boundary_name(b));
        const htd::linalg::Vector dv = pipeline.decision_values(b, devices.fingerprints);
        ASSERT_EQ(dv.size(), devices.size());
        EXPECT_EQ(fnv1a_bits(dv), kPins[i].hash) << std::hex << fnv1a_bits(dv);
        const htd::ml::DetectionMetrics m = pipeline.evaluate(b, devices);
        EXPECT_EQ(m.false_positives, kPins[i].fp);
        EXPECT_EQ(m.false_negatives, kPins[i].fn);
    }
}

}  // namespace

// --- report serialization (appended) ----------------------------------------------

namespace {

TEST(Integration, ReportSerializesEndToEnd) {
    ExperimentConfig cfg = fast_config();
    cfg.n_chips = 8;
    const ExperimentResult r = run_experiment(cfg);
    const auto doc = htd::core::experiment_report(cfg, r, true);
    const std::string text = doc.dump(2);
    EXPECT_NE(text.find("\"devices\""), std::string::npos);
    EXPECT_NE(text.find("\"fn_rate\""), std::string::npos);
}

}  // namespace
