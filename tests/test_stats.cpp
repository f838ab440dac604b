/// Tests for descriptive statistics, histograms and running accumulators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "rng/rng.hpp"
#include "stats/descriptive.hpp"

namespace {

using htd::linalg::Matrix;
using htd::linalg::Vector;
using htd::stats::Histogram;
using htd::stats::RunningStats;

TEST(Descriptive, Mean) {
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(htd::stats::mean(xs), 2.5);
    EXPECT_THROW((void)htd::stats::mean(std::vector<double>{}), std::invalid_argument);
}

TEST(Descriptive, VarianceUnbiased) {
    const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_NEAR(htd::stats::variance(xs), 32.0 / 7.0, 1e-12);
    EXPECT_THROW((void)htd::stats::variance(std::vector<double>{1.0}),
                 std::invalid_argument);
}

TEST(Descriptive, MedianOddEven) {
    EXPECT_DOUBLE_EQ(htd::stats::median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(htd::stats::median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Descriptive, QuantileInterpolates) {
    const std::vector<double> xs{0.0, 10.0};
    EXPECT_DOUBLE_EQ(htd::stats::quantile(xs, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(htd::stats::quantile(xs, 1.0), 10.0);
    EXPECT_DOUBLE_EQ(htd::stats::quantile(xs, 0.25), 2.5);
    EXPECT_THROW((void)htd::stats::quantile(xs, 1.5), std::invalid_argument);
}

TEST(Descriptive, QuantileMatchesSortedReference) {
    // quantile reads two order statistics by selection; compare with
    // linear interpolation on a fully sorted copy.
    htd::rng::Rng rng(21);
    for (const std::size_t n : {1001u, 1000u}) {
        std::vector<double> xs(n);
        for (double& x : xs) x = rng.normal();
        std::vector<double> sorted = xs;
        std::sort(sorted.begin(), sorted.end());
        for (const double q : {0.5, 0.999}) {
            const double pos = q * static_cast<double>(n - 1);
            const auto lo = static_cast<std::size_t>(pos);
            const std::size_t hi = std::min(lo + 1, n - 1);
            const double frac = pos - static_cast<double>(lo);
            const double expected = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
            EXPECT_EQ(htd::stats::quantile(xs, q), expected) << "n=" << n << " q=" << q;
        }
    }
}

TEST(Descriptive, PearsonCorrelation) {
    const std::vector<double> xs{1.0, 2.0, 3.0};
    const std::vector<double> ys{2.0, 4.0, 6.0};
    EXPECT_NEAR(htd::stats::pearson_correlation(xs, ys), 1.0, 1e-12);
    const std::vector<double> anti{3.0, 2.0, 1.0};
    EXPECT_NEAR(htd::stats::pearson_correlation(xs, anti), -1.0, 1e-12);
    const std::vector<double> flat{5.0, 5.0, 5.0};
    EXPECT_THROW((void)htd::stats::pearson_correlation(xs, flat), std::invalid_argument);
}

TEST(Descriptive, ColumnMeansAndStds) {
    const Matrix data{{1.0, 10.0}, {3.0, 30.0}};
    const Vector m = htd::stats::column_means(data);
    EXPECT_EQ(m, (Vector{2.0, 20.0}));
    const Vector s = htd::stats::column_stddevs(data);
    EXPECT_NEAR(s[0], std::sqrt(2.0), 1e-12);
    EXPECT_NEAR(s[1], std::sqrt(200.0), 1e-12);
}

TEST(Descriptive, CovarianceMatrixKnown) {
    const Matrix data{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
    const Matrix cov = htd::stats::covariance_matrix(data);
    EXPECT_NEAR(cov(0, 0), 1.0, 1e-12);
    EXPECT_NEAR(cov(0, 1), 2.0, 1e-12);
    EXPECT_NEAR(cov(1, 1), 4.0, 1e-12);
    EXPECT_TRUE(cov.is_symmetric());
}

TEST(Descriptive, CenteredHasZeroColumnMeans) {
    htd::rng::Rng rng(1);
    Matrix data(50, 3);
    for (std::size_t r = 0; r < 50; ++r)
        for (std::size_t c = 0; c < 3; ++c) data(r, c) = rng.normal(5.0, 2.0);
    const Matrix centered = htd::stats::centered(data);
    const Vector m = htd::stats::column_means(centered);
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(m[c], 0.0, 1e-12);
}

TEST(Descriptive, MahalanobisIdentityCovIsEuclidean) {
    const Vector x{3.0, 4.0};
    const Vector mean{0.0, 0.0};
    EXPECT_NEAR(htd::stats::mahalanobis(x, mean, Matrix::identity(2)), 5.0, 1e-9);
}

TEST(Descriptive, MahalanobisScalesWithVariance) {
    const Vector x{2.0};
    const Vector mean{0.0};
    const Matrix cov{{4.0}};
    EXPECT_NEAR(htd::stats::mahalanobis(x, mean, cov), 1.0, 1e-9);
}

// --- Histogram -------------------------------------------------------------------

TEST(HistogramTest, CountsAndEdges) {
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);
    h.add(9.99);
    h.add(10.0);   // right edge -> last bin
    h.add(-1.0);   // underflow
    h.add(11.0);   // overflow
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(9), 2u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(HistogramTest, DensityNormalizes) {
    Histogram h(0.0, 1.0, 4);
    const std::vector<double> xs{0.1, 0.3, 0.6, 0.9};
    h.add_all(xs);
    double integral = 0.0;
    for (std::size_t b = 0; b < h.bins(); ++b) integral += h.density(b) * 0.25;
    EXPECT_NEAR(integral, 1.0, 1e-12);
}

TEST(HistogramTest, RejectsBadConstruction) {
    EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
    EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
}

TEST(HistogramTest, BinCenter) {
    Histogram h(0.0, 10.0, 5);
    EXPECT_DOUBLE_EQ(h.bin_center(0), 1.0);
    EXPECT_DOUBLE_EQ(h.bin_center(4), 9.0);
    EXPECT_THROW((void)h.bin_center(5), std::out_of_range);
}

// --- RunningStats ---------------------------------------------------------------

TEST(RunningStatsTest, MatchesBatchStatistics) {
    htd::rng::Rng rng(2);
    RunningStats rs;
    std::vector<double> xs;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.normal(3.0, 1.5);
        rs.add(x);
        xs.push_back(x);
    }
    EXPECT_NEAR(rs.mean(), htd::stats::mean(xs), 1e-10);
    EXPECT_NEAR(rs.variance(), htd::stats::variance(xs), 1e-9);
    EXPECT_EQ(rs.count(), 1000u);
}

TEST(RunningStatsTest, MinMaxTracked) {
    RunningStats rs;
    rs.add(3.0);
    rs.add(-1.0);
    rs.add(2.0);
    EXPECT_EQ(rs.min(), -1.0);
    EXPECT_EQ(rs.max(), 3.0);
}

TEST(RunningStatsTest, VarianceNeedsTwoSamples) {
    RunningStats rs;
    rs.add(1.0);
    EXPECT_THROW((void)rs.variance(), std::logic_error);
}

}  // namespace
