/// Tests for the golden-free detection pipeline's mechanics: stage ordering,
/// dataset shapes, boundary readiness, and the golden-chip baseline wrapper.
/// The statistical end-to-end behaviour is covered by test_integration.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/errors.hpp"
#include "pipeline/experiment.hpp"
#include "pipeline/pipeline.hpp"

namespace {

using htd::core::Boundary;
using htd::core::BoundaryUnavailableError;
using htd::core::ConfigError;
using htd::core::DataQualityError;
using htd::core::DimensionError;
using htd::core::StageOrderError;
using htd::core::boundary_name;
using htd::core::dataset_name;
using htd::core::GoldenChipBaseline;
using htd::core::GoldenFreePipeline;
using htd::core::kAllBoundaries;
using htd::core::PipelineConfig;
using htd::linalg::Matrix;
using htd::linalg::Vector;
using htd::rng::Rng;
using htd::silicon::PlatformConfig;
using htd::silicon::SpiceSimulator;

/// Small, fast pipeline configuration used throughout this file.
PipelineConfig small_config() {
    PipelineConfig cfg;
    cfg.monte_carlo_samples = 40;
    cfg.synthetic_samples = 2000;
    return cfg;
}

SpiceSimulator make_simulator() {
    const auto pair = htd::core::make_process_pair(4.5);
    return {PlatformConfig::paper_default(), pair.spice};
}

TEST(BoundaryNames, AllDistinct) {
    EXPECT_EQ(boundary_name(Boundary::kB1), "B1");
    EXPECT_EQ(boundary_name(Boundary::kB5), "B5");
    EXPECT_EQ(dataset_name(Boundary::kB3), "S3");
    EXPECT_EQ(kAllBoundaries.size(), 5u);
}

TEST(Pipeline, RejectsDegenerateConfig) {
    PipelineConfig cfg = small_config();
    cfg.monte_carlo_samples = 1;
    EXPECT_THROW(GoldenFreePipeline(cfg, make_simulator()), ConfigError);
    cfg = small_config();
    cfg.synthetic_samples = 0;
    EXPECT_THROW(GoldenFreePipeline(cfg, make_simulator()), ConfigError);
    cfg = small_config();
    cfg.kmm_min_effective_sample_size = -1.0;
    EXPECT_THROW(GoldenFreePipeline(cfg, make_simulator()), ConfigError);
}

TEST(Pipeline, StageOrderingEnforced) {
    GoldenFreePipeline pipeline(small_config(), make_simulator());
    Rng rng(1);
    // Silicon stage before pre-manufacturing: error.
    EXPECT_THROW(pipeline.run_silicon_stage(Matrix(10, 1, 1.0), rng), StageOrderError);
    EXPECT_THROW((void)pipeline.regressions(), StageOrderError);
    EXPECT_THROW((void)pipeline.simulated_pcms(), StageOrderError);
    EXPECT_THROW((void)pipeline.dataset(Boundary::kB1), BoundaryUnavailableError);
}

TEST(Pipeline, PremanufacturingEnablesB1B2Only) {
    GoldenFreePipeline pipeline(small_config(), make_simulator());
    Rng rng(2);
    pipeline.run_premanufacturing(rng);
    EXPECT_TRUE(pipeline.boundary_ready(Boundary::kB1));
    EXPECT_TRUE(pipeline.boundary_ready(Boundary::kB2));
    EXPECT_FALSE(pipeline.boundary_ready(Boundary::kB3));
    EXPECT_FALSE(pipeline.boundary_ready(Boundary::kB4));
    EXPECT_FALSE(pipeline.boundary_ready(Boundary::kB5));
    EXPECT_THROW((void)pipeline.classify(Boundary::kB3, Matrix(1, 6)),
                 BoundaryUnavailableError);
}

TEST(Pipeline, DatasetShapesMatchPaper) {
    PipelineConfig cfg = small_config();
    GoldenFreePipeline pipeline(cfg, make_simulator());
    Rng rng(3);
    pipeline.run_premanufacturing(rng);

    // S1 is n x nm; S2 is M' x nm.
    EXPECT_EQ(pipeline.dataset(Boundary::kB1).rows(), cfg.monte_carlo_samples);
    EXPECT_EQ(pipeline.dataset(Boundary::kB1).cols(), 6u);
    EXPECT_EQ(pipeline.dataset(Boundary::kB2).rows(), cfg.synthetic_samples);

    // Feed a plausible silicon PCM population (log space handled internally).
    htd::core::ExperimentConfig exp_cfg;
    exp_cfg.n_chips = 10;
    Rng fab_rng(4);
    const auto measured = htd::core::fabricate_and_measure(exp_cfg, fab_rng);
    pipeline.run_silicon_stage(measured.pcms, rng);

    EXPECT_EQ(pipeline.dataset(Boundary::kB3).rows(), measured.pcms.rows());
    EXPECT_EQ(pipeline.dataset(Boundary::kB4).rows(), cfg.monte_carlo_samples);
    EXPECT_EQ(pipeline.dataset(Boundary::kB5).rows(), cfg.synthetic_samples);
    EXPECT_TRUE(pipeline.calibration_result().has_value());
}

TEST(Pipeline, SiliconStageValidatesInput) {
    GoldenFreePipeline pipeline(small_config(), make_simulator());
    Rng rng(5);
    pipeline.run_premanufacturing(rng);
    EXPECT_THROW(pipeline.run_silicon_stage(Matrix(10, 3, 1.0), rng),
                 DimensionError);
    EXPECT_THROW(pipeline.run_silicon_stage(Matrix(0, 1), rng), DataQualityError);
    // Log transform rejects non-positive PCM values.
    EXPECT_THROW(pipeline.run_silicon_stage(Matrix(4, 1, -1.0), rng),
                 DataQualityError);
    // Non-finite PCM measurements are rejected before any training.
    Matrix bad(4, 1, 1.0);
    bad(2, 0) = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(pipeline.run_silicon_stage(bad, rng), DataQualityError);
}

TEST(Pipeline, ClassifyReturnsOneVerdictPerRow) {
    GoldenFreePipeline pipeline(small_config(), make_simulator());
    Rng rng(6);
    pipeline.run_premanufacturing(rng);
    const Matrix probes(7, 6, -3.0);
    EXPECT_EQ(pipeline.classify(Boundary::kB1, probes).size(), 7u);
    EXPECT_EQ(pipeline.decision_values(Boundary::kB2, probes).size(), 7u);
}

TEST(Pipeline, B1ContainsItsOwnTrainingCore) {
    GoldenFreePipeline pipeline(small_config(), make_simulator());
    Rng rng(7);
    pipeline.run_premanufacturing(rng);
    const Matrix& s1 = pipeline.dataset(Boundary::kB1);
    const auto verdicts = pipeline.classify(Boundary::kB1, s1);
    std::size_t inside = 0;
    for (bool v : verdicts) inside += v ? 1 : 0;
    // At least 1 - nu of the training samples are inside their own boundary.
    EXPECT_GE(inside, s1.rows() * 8 / 10);
}

TEST(Pipeline, MarsBankHasOneModelPerFingerprint) {
    GoldenFreePipeline pipeline(small_config(), make_simulator());
    Rng rng(8);
    pipeline.run_premanufacturing(rng);
    EXPECT_EQ(pipeline.regressions().output_dim(), 6u);
    for (std::size_t j = 0; j < 6; ++j) {
        EXPECT_GT(pipeline.regressions().model(j).r_squared(), 0.5);
    }
}

TEST(Pipeline, LogTransformAppliedToStoredPcms) {
    PipelineConfig cfg = small_config();
    GoldenFreePipeline pipeline(cfg, make_simulator());
    Rng rng(9);
    pipeline.run_premanufacturing(rng);
    // Stored PCMs are logs of ns-scale delays: small negative numbers, not
    // the raw positive delays.
    const double v = pipeline.simulated_pcms()(0, 0);
    EXPECT_LT(v, 0.0);
    EXPECT_GT(v, -10.0);
}

// --- GoldenChipBaseline ---------------------------------------------------------

TEST(Baseline, TrainsAndClassifies) {
    Rng rng(10);
    Matrix golden(60, 2);
    for (std::size_t r = 0; r < 60; ++r) {
        golden(r, 0) = rng.normal(0.0, 1.0);
        golden(r, 1) = rng.normal(0.0, 1.0);
    }
    GoldenChipBaseline baseline;
    baseline.fit(golden);
    const auto verdicts = baseline.classify(Matrix(1, 2, 0.0));
    EXPECT_TRUE(verdicts[0]);
    const auto far = baseline.classify(Matrix(1, 2, 25.0));
    EXPECT_FALSE(far[0]);
}

}  // namespace
