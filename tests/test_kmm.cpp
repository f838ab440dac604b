/// Tests for kernel mean matching and the kernel-mean-shift calibrator
/// (the paper's Section 2.4 covariate-shift machinery).

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "ml/kmm.hpp"
#include "obs/obs.hpp"
#include "rng/rng.hpp"
#include "stats/descriptive.hpp"

namespace {

using htd::linalg::Matrix;
using htd::linalg::Vector;
using htd::ml::KernelMeanMatching;
using htd::ml::KernelMeanShiftCalibrator;
using htd::ml::project_box_sum;
using htd::rng::Rng;

Matrix cloud(Rng& rng, std::size_t n, std::size_t d, double mean, double sd) {
    Matrix data(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c) data(r, c) = rng.normal(mean, sd);
    return data;
}

// --- projection ------------------------------------------------------------------

TEST(ProjectBoxSum, NoOpWhenAlreadyFeasible) {
    const Vector v{0.5, 0.5};
    const Vector p = project_box_sum(v, 1.0, 0.5, 2.0);
    EXPECT_NEAR(p[0], 0.5, 1e-9);
    EXPECT_NEAR(p[1], 0.5, 1e-9);
}

TEST(ProjectBoxSum, ClipsToBox) {
    const Vector v{-1.0, 2.0};
    const Vector p = project_box_sum(v, 1.0, 0.0, 2.0);
    EXPECT_GE(p[0], 0.0);
    EXPECT_LE(p[1], 1.0);
}

TEST(ProjectBoxSum, RaisesSumToLowerBound) {
    const Vector v{0.0, 0.0, 0.0};
    const Vector p = project_box_sum(v, 1.0, 1.5, 3.0);
    EXPECT_NEAR(p.sum(), 1.5, 1e-6);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_GE(p[i], 0.0);
        EXPECT_LE(p[i], 1.0);
    }
}

TEST(ProjectBoxSum, LowersSumToUpperBound) {
    const Vector v{1.0, 1.0, 1.0};
    const Vector p = project_box_sum(v, 1.0, 0.0, 1.2);
    EXPECT_NEAR(p.sum(), 1.2, 1e-6);
}

TEST(ProjectBoxSum, UniformShiftPreservesOrdering) {
    const Vector v{0.1, 0.6, 0.3};
    const Vector p = project_box_sum(v, 1.0, 2.0, 2.5);
    EXPECT_LE(p[0], p[2]);
    EXPECT_LE(p[2], p[1]);
}

TEST(ProjectBoxSum, RejectsEmptyFeasibleSet) {
    const Vector v{0.5, 0.5};
    EXPECT_THROW((void)project_box_sum(v, 1.0, 3.0, 4.0), std::invalid_argument);
    EXPECT_THROW((void)project_box_sum(v, 0.0, 0.0, 1.0), std::invalid_argument);
    EXPECT_THROW((void)project_box_sum(v, 1.0, 2.0, 1.0), std::invalid_argument);
}

// --- KMM -----------------------------------------------------------------------------

TEST(Kmm, RejectsBadOptions) {
    KernelMeanMatching::Options opts;
    opts.weight_bound = 0.0;
    EXPECT_THROW(KernelMeanMatching{opts}, std::invalid_argument);
    opts.weight_bound = 10.0;
    opts.max_iterations = 0;
    EXPECT_THROW(KernelMeanMatching{opts}, std::invalid_argument);
}

TEST(Kmm, RejectsEmptyOrMismatched) {
    const KernelMeanMatching kmm;
    Rng rng(1);
    const Matrix a = cloud(rng, 10, 2, 0.0, 1.0);
    EXPECT_THROW((void)kmm.solve(Matrix(), a), std::invalid_argument);
    EXPECT_THROW((void)kmm.solve(a, Matrix()), std::invalid_argument);
    const Matrix b = cloud(rng, 10, 3, 0.0, 1.0);
    EXPECT_THROW((void)kmm.solve(a, b), std::invalid_argument);
}

TEST(Kmm, IdenticalDistributionsGiveNearUniformWeights) {
    Rng rng(2);
    const Matrix train = cloud(rng, 80, 1, 0.0, 1.0);
    const Matrix test = cloud(rng, 80, 1, 0.0, 1.0);
    const KernelMeanMatching kmm;
    const Vector beta = kmm.solve(train, test);
    ASSERT_EQ(beta.size(), 80u);
    EXPECT_NEAR(beta.mean(), 1.0, 0.7);
    // Weights are feasible.
    for (std::size_t i = 0; i < beta.size(); ++i) {
        EXPECT_GE(beta[i], 0.0);
        EXPECT_LE(beta[i], kmm.options().weight_bound);
    }
}

TEST(Kmm, ShiftedTestUpweightsNearbyTrainingSamples) {
    Rng rng(3);
    const Matrix train = cloud(rng, 100, 1, 0.0, 1.0);
    const Matrix test = cloud(rng, 100, 1, 1.0, 0.5);
    const KernelMeanMatching kmm;
    const Vector beta = kmm.solve(train, test);

    // beta-weighted training mean moves toward the test mean.
    double weighted = 0.0;
    for (std::size_t i = 0; i < 100; ++i) weighted += beta[i] * train(i, 0);
    weighted /= std::max(beta.sum(), 1e-12);
    const double plain_mean = htd::stats::column_means(train)[0];
    const double test_mean = htd::stats::column_means(test)[0];
    EXPECT_GT(weighted, plain_mean);
    EXPECT_NEAR(weighted, test_mean, 0.35);
}

TEST(Kmm, ObjectiveDecreasesFromUniform) {
    Rng rng(4);
    const Matrix train = cloud(rng, 60, 2, 0.0, 1.0);
    const Matrix test = cloud(rng, 60, 2, 0.8, 1.0);
    const KernelMeanMatching kmm;
    const Vector beta = kmm.solve(train, test);

    const double gamma = htd::ml::median_heuristic_gamma(train);
    const auto kernel = htd::ml::rbf_kernel(gamma);
    const Matrix k = htd::ml::gram_matrix(kernel, train);
    Vector kappa(60);
    for (std::size_t i = 0; i < 60; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < 60; ++j) acc += kernel(train.row_span(i), test.row_span(j));
        kappa[i] = acc;  // ntr == nte so the ratio factor is 1
    }
    const Vector uniform(60, 1.0);
    EXPECT_LE(KernelMeanMatching::objective(k, kappa, beta),
              KernelMeanMatching::objective(k, kappa, uniform) + 1e-9);
}

class KmmSpanTest : public ::testing::Test {
protected:
    void SetUp() override {
        htd::obs::Registry::global().configure(htd::obs::SinkKind::kJson);
        htd::obs::Registry::global().reset();
    }
    void TearDown() override {
        htd::obs::Registry::global().configure(htd::obs::SinkKind::kOff);
        htd::obs::Registry::global().reset();
    }
    /// Attribute `key` of the last recorded kmm.solve span.
    static double solve_attr(const std::string& key) {
        const auto spans = htd::obs::Registry::global().spans();
        for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
            if (it->name != "kmm.solve") continue;
            for (const auto& [k, v] : it->attrs) {
                if (k == key) return v;
            }
            ADD_FAILURE() << "kmm.solve has no attribute " << key;
            return -1.0;
        }
        ADD_FAILURE() << "no kmm.solve span";
        return -1.0;
    }
};

TEST_F(KmmSpanTest, SolveReportsConvergence) {
    // One training row: eps = 0 pins the weight sum to 1, so beta = 1 (up
    // to the projection's bisection) is the only feasible point and the
    // first step meets the tolerance.
    Rng rng(10);
    const Matrix test = cloud(rng, 20, 6, 0.0, 1.0);
    const KernelMeanMatching kmm;
    const Vector single = kmm.solve(cloud(rng, 1, 6, 0.0, 1.0), test);
    EXPECT_NEAR(single[0], 1.0, 1e-12);
    EXPECT_EQ(solve_attr("pgd_iterations"), 1.0);
    EXPECT_EQ(solve_attr("converged"), 1.0);

    // A pipeline-shaped problem stopped after one step has not converged.
    const Matrix train = cloud(rng, 203, 6, 0.0, 1.0);
    const Matrix shifted = cloud(rng, 120, 6, 0.25, 1.0);
    KernelMeanMatching::Options opts;
    opts.max_iterations = 1;
    (void)KernelMeanMatching(opts).solve(train, shifted);
    EXPECT_EQ(solve_attr("pgd_iterations"), 1.0);
    EXPECT_EQ(solve_attr("converged"), 0.0);
}

// --- calibrator ------------------------------------------------------------------------

TEST(Calibrator, AlignsMeansOfDisjointClouds) {
    Rng rng(5);
    const Matrix train = cloud(rng, 100, 1, 0.0, 1.0);
    const Matrix test = cloud(rng, 60, 1, 8.0, 0.4);  // far away, narrower
    const KernelMeanShiftCalibrator calibrator;
    const auto result = calibrator.calibrate(train, test);

    const double calibrated_mean = htd::stats::column_means(result.calibrated)[0];
    const double test_mean = htd::stats::column_means(test)[0];
    EXPECT_NEAR(calibrated_mean, test_mean, 0.5);
}

TEST(Calibrator, PreservesTrainingSpread) {
    Rng rng(6);
    const Matrix train = cloud(rng, 100, 1, 0.0, 2.0);
    const Matrix test = cloud(rng, 50, 1, 5.0, 0.3);
    const KernelMeanShiftCalibrator calibrator;
    const auto result = calibrator.calibrate(train, test);

    // The paper's point: m''_p keeps the wide Monte Carlo spread.
    const double calibrated_sd = htd::stats::column_stddevs(result.calibrated)[0];
    EXPECT_NEAR(calibrated_sd, 2.0, 0.2);
    EXPECT_GT(calibrated_sd, 3.0 * 0.3);
}

TEST(Calibrator, NearNoOpWhenAlreadyAligned) {
    Rng rng(7);
    const Matrix train = cloud(rng, 100, 2, 1.0, 1.0);
    const Matrix test = cloud(rng, 100, 2, 1.0, 1.0);
    const KernelMeanShiftCalibrator calibrator;
    const auto result = calibrator.calibrate(train, test);
    EXPECT_LT(result.total_shift.norm(), 0.5);
}

TEST(Calibrator, MultiDimensionalShiftRecovered) {
    Rng rng(8);
    const Matrix train = cloud(rng, 120, 3, 0.0, 1.0);
    Matrix test = cloud(rng, 80, 3, 0.0, 0.5);
    // Shift test by a known vector.
    const Vector delta{2.0, -3.0, 1.0};
    for (std::size_t r = 0; r < test.rows(); ++r) {
        auto row = test.row_span(r);
        for (std::size_t c = 0; c < 3; ++c) row[c] += delta[c];
    }
    const KernelMeanShiftCalibrator calibrator;
    const auto result = calibrator.calibrate(train, test);
    for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_NEAR(result.total_shift[c], delta[c], 0.4);
    }
}

TEST(Calibrator, RejectsBadInputs) {
    const KernelMeanShiftCalibrator calibrator;
    Rng rng(9);
    const Matrix a = cloud(rng, 10, 2, 0.0, 1.0);
    EXPECT_THROW((void)calibrator.calibrate(Matrix(), a), std::invalid_argument);
    const Matrix b = cloud(rng, 10, 1, 0.0, 1.0);
    EXPECT_THROW((void)calibrator.calibrate(a, b), std::invalid_argument);
}

TEST(Calibrator, ReportsWeightsAndIterations) {
    Rng rng(10);
    const Matrix train = cloud(rng, 50, 1, 0.0, 1.0);
    const Matrix test = cloud(rng, 50, 1, 4.0, 0.5);
    KernelMeanShiftCalibrator::Options opts;
    opts.max_shift_iterations = 50;
    const KernelMeanShiftCalibrator calibrator(opts);
    const auto result = calibrator.calibrate(train, test);
    EXPECT_EQ(result.weights.size(), 50u);
    EXPECT_GT(result.iterations, 0u);
    EXPECT_LE(result.iterations, 50u);
}

/// Property: calibration aligns means for a sweep of gap sizes.
class CalibratorGapSweep : public ::testing::TestWithParam<double> {};

TEST_P(CalibratorGapSweep, MeanGapClosed) {
    const double gap = GetParam();
    Rng rng(20 + static_cast<std::uint64_t>(gap * 10));
    const Matrix train = cloud(rng, 80, 1, 0.0, 1.0);
    const Matrix test = cloud(rng, 40, 1, gap, 0.4);
    const KernelMeanShiftCalibrator calibrator;
    const auto result = calibrator.calibrate(train, test);
    const double residual_gap = htd::stats::column_means(result.calibrated)[0] -
                                htd::stats::column_means(test)[0];
    EXPECT_LT(std::abs(residual_gap), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Gaps, CalibratorGapSweep,
                         ::testing::Values(0.5, 2.0, 5.0, 10.0, 20.0));

}  // namespace

// --- weighted resampling (appended) -------------------------------------------

namespace {

TEST(EffectiveSampleSize, UniformCollapsedAndEmpty) {
    // Kish ESS (sum w)^2 / sum w^2: n for uniform weights, 1 when one
    // weight carries all the mass, 0 for an empty vector.
    EXPECT_NEAR(htd::ml::effective_sample_size(Vector(8, 0.25)), 8.0, 1e-12);
    Vector collapsed(8, 0.0);
    collapsed[3] = 5.0;
    EXPECT_NEAR(htd::ml::effective_sample_size(collapsed), 1.0, 1e-12);
    EXPECT_EQ(htd::ml::effective_sample_size(Vector{}), 0.0);
}

TEST(WeightedResample, FollowsWeights) {
    Rng rng(30);
    Matrix data(3, 1);
    data(0, 0) = 1.0;
    data(1, 0) = 2.0;
    data(2, 0) = 3.0;
    Vector w{0.0, 1.0, 3.0};
    const Matrix out = htd::ml::weighted_resample(data, w, 20000, rng);
    ASSERT_EQ(out.rows(), 20000u);
    std::size_t ones = 0, twos = 0, threes = 0;
    for (std::size_t r = 0; r < out.rows(); ++r) {
        if (out(r, 0) == 1.0) ++ones;
        if (out(r, 0) == 2.0) ++twos;
        if (out(r, 0) == 3.0) ++threes;
    }
    EXPECT_EQ(ones, 0u);
    EXPECT_NEAR(static_cast<double>(twos) / 20000.0, 0.25, 0.02);
    EXPECT_NEAR(static_cast<double>(threes) / 20000.0, 0.75, 0.02);
}

TEST(WeightedResample, RejectsBadInput) {
    Rng rng(31);
    Matrix data(2, 1, 1.0);
    EXPECT_THROW((void)htd::ml::weighted_resample(data, Vector(3), 5, rng),
                 std::invalid_argument);
    EXPECT_THROW((void)htd::ml::weighted_resample(data, Vector(2, 1.0), 0, rng),
                 std::invalid_argument);
}

}  // namespace
