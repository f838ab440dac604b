/// Tests for the smoothing kernels and (adaptive) kernel density estimation —
/// the paper's Section 2.5 machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "rng/rng.hpp"
#include "stats/descriptive.hpp"
#include "stats/kde.hpp"
#include "stats/kernels.hpp"

namespace {

using htd::linalg::Matrix;
using htd::linalg::Vector;
using htd::rng::Rng;
using htd::stats::AdaptiveKde;
using htd::stats::EpanechnikovKernel;
using htd::stats::GaussianKernel;
using htd::stats::Kde;
using htd::stats::KernelType;

TEST(UnitBallVolume, KnownValues) {
    EXPECT_NEAR(htd::stats::unit_ball_volume(1), 2.0, 1e-12);
    EXPECT_NEAR(htd::stats::unit_ball_volume(2), std::numbers::pi, 1e-12);
    EXPECT_NEAR(htd::stats::unit_ball_volume(3), 4.0 / 3.0 * std::numbers::pi, 1e-12);
    EXPECT_THROW((void)htd::stats::unit_ball_volume(0), std::invalid_argument);
}

TEST(Epanechnikov, ZeroOutsideUnitBall) {
    const EpanechnikovKernel k(2);
    const double t_out[] = {1.0, 0.5};
    EXPECT_EQ(k.density(t_out), 0.0);
    const double t_in[] = {0.1, 0.1};
    EXPECT_GT(k.density(t_in), 0.0);
}

TEST(Epanechnikov, PeakAtOrigin1D) {
    // Ke(0) = 1/2 c_1^{-1} (1+2) = 3/4 for d = 1 (the textbook value).
    const EpanechnikovKernel k(1);
    const double origin[] = {0.0};
    EXPECT_NEAR(k.density(origin), 0.75, 1e-12);
}

/// Property: the kernel integrates to 1 (Monte Carlo integration over the
/// unit cube scaled to the support) in several dimensions.
class EpanechnikovNormalization : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EpanechnikovNormalization, IntegratesToOne) {
    const std::size_t d = GetParam();
    const EpanechnikovKernel k(d);
    Rng rng(101 + d);
    const int n = 400000;
    double acc = 0.0;
    std::vector<double> t(d);
    // MC integration over [-1, 1]^d (volume 2^d) covers the support.
    for (int i = 0; i < n; ++i) {
        for (double& v : t) v = rng.uniform(-1.0, 1.0);
        acc += k.density(t);
    }
    const double integral = acc / n * std::pow(2.0, static_cast<double>(d));
    EXPECT_NEAR(integral, 1.0, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Dims, EpanechnikovNormalization, ::testing::Values(1, 2, 3, 6));

/// Property: exact sampling matches the radial law; E[||t||^2] = d * (num/den)
/// with num = 1/(d+2)-1/(d+4), den = 1/d - 1/(d+2) ... verified numerically
/// against direct integration.
class EpanechnikovSampling : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EpanechnikovSampling, SampleMomentsMatchDensity) {
    const std::size_t d = GetParam();
    const EpanechnikovKernel k(d);
    Rng rng(202 + d);
    std::vector<double> t(d);
    const int n = 200000;
    double mean_r2 = 0.0;
    Vector mean(d);
    for (int i = 0; i < n; ++i) {
        k.sample(rng, t);
        double r2 = 0.0;
        for (std::size_t c = 0; c < d; ++c) {
            r2 += t[c] * t[c];
            mean[c] += t[c];
        }
        ASSERT_LE(r2, 1.0 + 1e-12);
        mean_r2 += r2;
    }
    mean_r2 /= n;
    mean /= static_cast<double>(n);

    // Analytic E[r^2] for the radial density ~ r^{d-1}(1-r^2).
    const double dd = static_cast<double>(d);
    const double num = 1.0 / (dd + 2.0) - 1.0 / (dd + 4.0);
    const double den = 1.0 / dd - 1.0 / (dd + 2.0);
    EXPECT_NEAR(mean_r2, num / den, 0.01);

    // Symmetric kernel: zero mean per coordinate.
    for (std::size_t c = 0; c < d; ++c) EXPECT_NEAR(mean[c], 0.0, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Dims, EpanechnikovSampling, ::testing::Values(1, 2, 3, 6, 8));

/// Distribution oracle for the sampler: a Kolmogorov-Smirnov test of the
/// sampled radius against the exact radial CDF of Eq. (6),
/// F(r) = ((d+2) r^d - d r^{d+2}) / 2 on [0, 1], plus per-coordinate
/// symmetry of the mean and of the sign. Any exact sampler passes it; a
/// wrong radial law or a biased direction does not.
class EpanechnikovRadialLaw : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EpanechnikovRadialLaw, RadiusPassesKolmogorovSmirnov) {
    const std::size_t d = GetParam();
    const EpanechnikovKernel k(d);
    Rng rng(303 + d);
    constexpr std::size_t n = 100000;
    std::vector<double> t(d);
    std::vector<double> radius(n);
    Vector mean(d);
    std::vector<std::size_t> positive(d, 0);
    for (std::size_t i = 0; i < n; ++i) {
        k.sample(rng, t);
        double r2 = 0.0;
        for (std::size_t c = 0; c < d; ++c) {
            r2 += t[c] * t[c];
            mean[c] += t[c];
            positive[c] += t[c] > 0.0 ? 1 : 0;
        }
        radius[i] = std::sqrt(r2);
    }
    std::sort(radius.begin(), radius.end());

    const double dd = static_cast<double>(d);
    const double nn = static_cast<double>(n);
    double ks = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double r = radius[i];
        const double cdf = 0.5 * ((dd + 2.0) * std::pow(r, dd) - dd * std::pow(r, dd + 2.0));
        ks = std::max({ks, cdf - static_cast<double>(i) / nn,
                       static_cast<double>(i + 1) / nn - cdf});
    }
    // Asymptotic one-sample KS critical value at alpha = 0.001:
    // sqrt(-ln(alpha / 2) / 2) / sqrt(n) = 1.949 / sqrt(n) = 0.00616.
    EXPECT_LT(ks, 1.949 / std::sqrt(nn)) << "d = " << d;

    // Each coordinate has mean 0 and variance E[r^2]/d = 1/(d+4), and is
    // positive with probability 1/2; both within five standard errors.
    const double mean_tol = 5.0 / std::sqrt((dd + 4.0) * nn);
    const double sign_tol = 5.0 * 0.5 / std::sqrt(nn);
    for (std::size_t c = 0; c < d; ++c) {
        EXPECT_NEAR(mean[c] / nn, 0.0, mean_tol) << "coordinate " << c;
        EXPECT_NEAR(static_cast<double>(positive[c]) / nn, 0.5, sign_tol)
            << "coordinate " << c;
    }
}

INSTANTIATE_TEST_SUITE_P(Dims, EpanechnikovRadialLaw, ::testing::Values(1, 2, 3, 6, 8));

/// The sampler's RNG consumption: one draw takes exactly d+4 normals (the
/// first d coordinates of a uniform point on S^{d+3}), so the stream after a
/// draw is the stream after d+4 `normal()` calls.
TEST(Epanechnikov, SampleConsumesDPlusFourNormals) {
    for (std::size_t d : {1u, 2u, 3u, 6u, 8u}) {
        const EpanechnikovKernel k(d);
        Rng rng(404 + d);
        Rng copy = rng;
        std::vector<double> t(d);
        k.sample(rng, t);
        for (std::size_t i = 0; i < d + 4; ++i) (void)copy.normal();
        EXPECT_EQ(rng.next_u64(), copy.next_u64()) << "d = " << d;
    }
}

TEST(GaussianKernelTest, MatchesStandardNormal1D) {
    const GaussianKernel k(1);
    const double at0[] = {0.0};
    EXPECT_NEAR(k.density(at0), 1.0 / std::sqrt(2.0 * std::numbers::pi), 1e-12);
    const double at1[] = {1.0};
    EXPECT_NEAR(k.density(at1),
                std::exp(-0.5) / std::sqrt(2.0 * std::numbers::pi), 1e-12);
}

// --- Silverman bandwidth -----------------------------------------------------------

TEST(Silverman, DecreasesWithSampleCount) {
    const double h100 = htd::stats::silverman_bandwidth(100, 6);
    const double h1000 = htd::stats::silverman_bandwidth(1000, 6);
    EXPECT_GT(h100, h1000);
    EXPECT_GT(h100, 0.0);
}

TEST(Silverman, GaussianRuleKnownValue1D) {
    // (4/3)^{1/5} * n^{-1/5}
    const double h = htd::stats::silverman_bandwidth(100, 1, KernelType::kGaussian);
    EXPECT_NEAR(h, std::pow(4.0 / 3.0, 0.2) * std::pow(100.0, -0.2), 1e-12);
}

TEST(Silverman, RejectsDegenerate) {
    EXPECT_THROW((void)htd::stats::silverman_bandwidth(0, 2), std::invalid_argument);
    EXPECT_THROW((void)htd::stats::silverman_bandwidth(10, 0), std::invalid_argument);
}

// --- Kde -----------------------------------------------------------------------------

Matrix gaussian_cloud(Rng& rng, std::size_t n, std::size_t d, double mean, double sd) {
    Matrix data(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c) data(r, c) = rng.normal(mean, sd);
    return data;
}

TEST(KdeTest, RejectsEmptyData) {
    EXPECT_THROW((void)Kde(Matrix{}), std::invalid_argument);
}

TEST(KdeTest, DensityHigherNearDataThanFar) {
    Rng rng(1);
    const Matrix data = gaussian_cloud(rng, 200, 2, 0.0, 1.0);
    const Kde kde(data);
    EXPECT_GT(kde.density(Vector{0.0, 0.0}), kde.density(Vector{6.0, 6.0}));
}

TEST(KdeTest, DensityIntegratesToOne1D) {
    Rng rng(2);
    const Matrix data = gaussian_cloud(rng, 300, 1, 0.0, 1.0);
    const Kde kde(data);
    double integral = 0.0;
    const double dx = 0.02;
    for (double x = -6.0; x <= 6.0; x += dx) {
        integral += kde.density(Vector{x}) * dx;
    }
    EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(KdeTest, SamplesReproduceSourceMoments) {
    Rng rng(3);
    const Matrix data = gaussian_cloud(rng, 500, 2, 5.0, 2.0);
    const Kde kde(data);
    const Matrix samples = kde.sample_n(rng, 20000);
    const Vector m = htd::stats::column_means(samples);
    const Vector s = htd::stats::column_stddevs(samples);
    EXPECT_NEAR(m[0], 5.0, 0.15);
    EXPECT_NEAR(m[1], 5.0, 0.15);
    // KDE sampling inflates the variance by the kernel width: std >= source.
    EXPECT_GT(s[0], 1.9);
    EXPECT_LT(s[0], 2.8);
}

TEST(KdeTest, AnisotropicDataHandledByStandardization) {
    Rng rng(4);
    Matrix data(300, 2);
    for (std::size_t r = 0; r < 300; ++r) {
        data(r, 0) = rng.normal(0.0, 100.0);  // very different scales
        data(r, 1) = rng.normal(0.0, 0.01);
    }
    const Kde kde(data);
    const Matrix samples = kde.sample_n(rng, 10000);
    const Vector s = htd::stats::column_stddevs(samples);
    EXPECT_NEAR(s[0] / 100.0, s[1] / 0.01, 0.2 * s[0] / 100.0 + 0.3);
}

TEST(KdeTest, ExplicitBandwidthRespected) {
    Rng rng(5);
    const Matrix data = gaussian_cloud(rng, 100, 1, 0.0, 1.0);
    const Kde narrow(data, 0.05);
    const Kde wide(data, 2.0);
    EXPECT_DOUBLE_EQ(narrow.bandwidth(), 0.05);
    // Wider bandwidth -> wider sampled population.
    const double s_narrow =
        htd::stats::column_stddevs(narrow.sample_n(rng, 5000))[0];
    const double s_wide = htd::stats::column_stddevs(wide.sample_n(rng, 5000))[0];
    EXPECT_GT(s_wide, s_narrow);
}

// --- AdaptiveKde -----------------------------------------------------------------------

TEST(AdaptiveKdeTest, AlphaZeroMatchesPilotLambdas) {
    Rng rng(6);
    const Matrix data = gaussian_cloud(rng, 100, 2, 0.0, 1.0);
    const AdaptiveKde kde(data, 0.0);
    for (std::size_t i = 0; i < 100; ++i) {
        EXPECT_DOUBLE_EQ(kde.local_bandwidth_factor(i), 1.0);
    }
}

TEST(AdaptiveKdeTest, RejectsBadAlphaAndLambda) {
    Rng rng(7);
    const Matrix data = gaussian_cloud(rng, 20, 1, 0.0, 1.0);
    EXPECT_THROW(AdaptiveKde(data, -0.1), std::invalid_argument);
    EXPECT_THROW(AdaptiveKde(data, 1.1), std::invalid_argument);
    EXPECT_THROW(AdaptiveKde(data, 0.5, 0.0, KernelType::kEpanechnikov, 0.5),
                 std::invalid_argument);
}

TEST(AdaptiveKdeTest, TailPointsGetLargerBandwidths) {
    // 1-D data with a dense core and one clear outlier.
    Matrix data;
    Rng rng(8);
    for (int i = 0; i < 50; ++i) data.append_row(Vector{rng.normal(0.0, 0.5)});
    data.append_row(Vector{6.0});  // tail observation, index 50
    const AdaptiveKde kde(data, 0.5, 0.0, KernelType::kEpanechnikov, 100.0);
    double core_avg = 0.0;
    for (std::size_t i = 0; i < 50; ++i) core_avg += kde.local_bandwidth_factor(i);
    core_avg /= 50.0;
    EXPECT_GT(kde.local_bandwidth_factor(50), core_avg);
}

TEST(AdaptiveKdeTest, LambdaClampHolds) {
    Matrix data;
    Rng rng(9);
    for (int i = 0; i < 50; ++i) data.append_row(Vector{rng.normal(0.0, 0.5)});
    data.append_row(Vector{8.0});
    const AdaptiveKde kde(data, 1.0, 0.0, KernelType::kEpanechnikov, 1.5);
    for (std::size_t i = 0; i < kde.observation_count(); ++i) {
        EXPECT_LE(kde.local_bandwidth_factor(i), 1.5 + 1e-12);
    }
}

TEST(AdaptiveKdeTest, GeometricMeanMatchesDefinition) {
    Rng rng(10);
    const Matrix data = gaussian_cloud(rng, 60, 2, 0.0, 1.0);
    const AdaptiveKde kde(data, 0.5);
    EXPECT_GT(kde.pilot_geometric_mean(), 0.0);
}

TEST(AdaptiveKdeTest, SamplesWidenTails) {
    Rng rng(11);
    const Matrix data = gaussian_cloud(rng, 200, 1, 0.0, 1.0);
    const AdaptiveKde adaptive(data, 0.9, 0.5);
    const Kde fixed(data, 0.5);
    const Matrix sa = adaptive.sample_n(rng, 30000);
    const Matrix sf = fixed.sample_n(rng, 30000);
    // The adaptive estimator pushes more mass into the tails: its sampled
    // 99.9th percentile should be at least as extreme as the fixed one's.
    std::vector<double> va(sa.rows()), vf(sf.rows());
    for (std::size_t i = 0; i < sa.rows(); ++i) va[i] = sa(i, 0);
    for (std::size_t i = 0; i < sf.rows(); ++i) vf[i] = sf(i, 0);
    EXPECT_GE(htd::stats::quantile(va, 0.999), htd::stats::quantile(vf, 0.999) - 0.05);
}

TEST(AdaptiveKdeTest, DensityIntegratesToOne1D) {
    Rng rng(12);
    const Matrix data = gaussian_cloud(rng, 200, 1, 0.0, 1.0);
    const AdaptiveKde kde(data, 0.5);
    double integral = 0.0;
    const double dx = 0.02;
    for (double x = -8.0; x <= 8.0; x += dx) integral += kde.density(Vector{x}) * dx;
    EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(AdaptiveKdeTest, SampleDimensionsMatch) {
    Rng rng(13);
    const Matrix data = gaussian_cloud(rng, 100, 6, -3.0, 0.4);
    const AdaptiveKde kde(data, 0.5);
    const Matrix s = kde.sample_n(rng, 1000);
    EXPECT_EQ(s.rows(), 1000u);
    EXPECT_EQ(s.cols(), 6u);
}

// --- bit pins for the density paths ------------------------------------------------

/// Probes of a fixed seeded 6-D fit whose kernel support has radius `radius`
/// around observation 0 (in the standardized space): the observation itself
/// (inside), one radius from it along the first axis (on the Epanechnikov
/// support edge, t = 1 up to rounding), and a point far outside every
/// kernel's support.
std::vector<Vector> support_probes(const Matrix& data, const Vector& mean,
                                   const Vector& scale, double radius) {
    Vector inside(data.cols());
    Vector edge(data.cols());
    Vector outside(data.cols());
    for (std::size_t c = 0; c < data.cols(); ++c) {
        inside[c] = data(0, c);
        const double z = (data(0, c) - mean[c]) / scale[c] + (c == 0 ? radius : 0.0);
        edge[c] = z * scale[c] + mean[c];
        outside[c] = mean[c] + 50.0 * scale[c];
    }
    return {inside, edge, outside};
}

TEST(KdeDensityPin, FixedKdeDensityBits) {
    // Pins Kde::density (the standardized-density kernel sum divided by the
    // Jacobian) bit for bit, so a rewrite of the evaluation loop must keep
    // every bit of the result.
    Rng rng(41);
    const Matrix data = gaussian_cloud(rng, 100, 6, 0.0, 1.0);
    const Kde kde(data);
    const Kde::State state = kde.export_state();
    const std::vector<Vector> probes =
        support_probes(data, state.col_mean, state.col_scale, state.h);
    const double kPinned[] = {0x1.d7e5c0741804dp-11, 0x1.035e1400b1cd9p-13, 0.0};
    for (std::size_t p = 0; p < probes.size(); ++p) {
        EXPECT_EQ(kde.density(probes[p]), kPinned[p]) << "probe " << p;
    }
}

TEST(KdeDensityPin, AdaptiveKdeDensityBits) {
    // The same pin for AdaptiveKde::density; the support radius of
    // observation 0 is h * lambda_0.
    Rng rng(41);
    const Matrix data = gaussian_cloud(rng, 100, 6, 0.0, 1.0);
    const AdaptiveKde kde(data, 0.5);
    const AdaptiveKde::State state = kde.export_state();
    const std::vector<Vector> probes =
        support_probes(data, state.pilot.col_mean, state.pilot.col_scale,
                       state.pilot.h * state.lambda[0]);
    const double kPinned[] = {0x1.39385b8ca66bap-9, 0x1.46d9507657911p-12, 0.0};
    for (std::size_t p = 0; p < probes.size(); ++p) {
        EXPECT_EQ(kde.density(probes[p]), kPinned[p]) << "probe " << p;
    }
}

TEST(KdeDensityPin, GaussianKernelDensityBits) {
    // The same pins through the generic kernel-call loop that the Gaussian
    // ablation kernel takes.
    Rng rng(41);
    const Matrix data = gaussian_cloud(rng, 100, 6, 0.0, 1.0);
    const Kde fixed(data, 0.0, KernelType::kGaussian);
    const Kde::State fs = fixed.export_state();
    const std::vector<Vector> fixed_probes =
        support_probes(data, fs.col_mean, fs.col_scale, fs.h);
    const double kFixed[] = {0x1.5da628f09dc9p-10, 0x1.9a6c7be1f87f8p-11, 0.0};
    for (std::size_t p = 0; p < fixed_probes.size(); ++p) {
        EXPECT_EQ(fixed.density(fixed_probes[p]), kFixed[p]) << "probe " << p;
    }
    const AdaptiveKde adaptive(data, 0.5, 0.0, KernelType::kGaussian);
    const AdaptiveKde::State as = adaptive.export_state();
    const std::vector<Vector> adaptive_probes =
        support_probes(data, as.pilot.col_mean, as.pilot.col_scale,
                       as.pilot.h * as.lambda[0]);
    const double kAdaptive[] = {0x1.22ec801aab15dp-9, 0x1.5af07a2eaa92bp-10, 0.0};
    for (std::size_t p = 0; p < adaptive_probes.size(); ++p) {
        EXPECT_EQ(adaptive.density(adaptive_probes[p]), kAdaptive[p]) << "probe " << p;
    }
}

/// Pins the first two rows of `sample_n(Rng(7), 3)` bit for bit, and checks
/// that `sample()` on the same stream draws row 0, so a rewrite of the draw
/// loop must keep both the RNG consumption and the arithmetic.
template <typename Estimator>
void expect_pinned_draws(const Estimator& kde, const double (&pinned)[2][6]) {
    Rng rng(7);
    const Matrix draws = kde.sample_n(rng, 3);
    ASSERT_EQ(draws.cols(), 6u);
    for (std::size_t r = 0; r < 2; ++r) {
        for (std::size_t c = 0; c < 6; ++c) {
            EXPECT_EQ(draws(r, c), pinned[r][c]) << "row " << r << " col " << c;
        }
    }
    Rng again(7);
    const Vector first = kde.sample(again);
    for (std::size_t c = 0; c < 6; ++c) EXPECT_EQ(first[c], draws(0, c)) << "col " << c;
}

TEST(KdeDensityPin, FixedKdeSampleBits) {
    Rng rng(41);
    const Kde kde(gaussian_cloud(rng, 100, 6, 0.0, 1.0));
    const double kPinned[2][6] = {
        {-0x1.aba0c97d13c6fp+0, 0x1.219164e110a6bp-1, 0x1.7f7fc395291e7p-3,
         -0x1.dbabfce3f3b9p+0, -0x1.9dc18368fd63p-7, 0x1.4f4801fd79edfp-1},
        {-0x1.2bcfbdd62da18p-3, -0x1.782c597456713p+1, -0x1.3a483bf6b68f2p-1,
         0x1.f7ea2b298e74ap-1, 0x1.74d1223a8599cp+0, -0x1.78fe37ff6e8b3p-2},
    };
    expect_pinned_draws(kde, kPinned);
}

TEST(KdeDensityPin, AdaptiveKdeSampleBits) {
    Rng rng(41);
    const AdaptiveKde kde(gaussian_cloud(rng, 100, 6, 0.0, 1.0), 0.5);
    const double kPinned[2][6] = {
        {-0x1.b4323ce11f75cp+0, 0x1.2d9e4a38a35a7p-1, 0x1.796ac744793b1p-3,
         -0x1.d682491b189f7p+0, -0x1.7958d5c712328p-6, 0x1.716a4ee809266p-1},
        {-0x1.96ed512b6c659p-3, -0x1.7ed021403392p+1, -0x1.4a98c0d213003p-1,
         0x1.026bfa4c5ba9p+0, 0x1.aa947992b2851p+0, -0x1.dd2a1542fd2cfp-2},
    };
    expect_pinned_draws(kde, kPinned);
}

/// Property sweep over alpha: population spread grows monotonically-ish with
/// alpha (larger alpha -> wider nonzero-density region, as the paper notes).
class AdaptiveAlpha : public ::testing::TestWithParam<double> {};

TEST_P(AdaptiveAlpha, SpreadAtLeastSourceSpread) {
    const double alpha = GetParam();
    Rng rng(14);
    const Matrix data = gaussian_cloud(rng, 150, 2, 0.0, 1.0);
    const AdaptiveKde kde(data, alpha);
    const Matrix samples = kde.sample_n(rng, 10000);
    const Vector s = htd::stats::column_stddevs(samples);
    EXPECT_GT(s[0], 0.95);
    EXPECT_GT(s[1], 0.95);
}

INSTANTIATE_TEST_SUITE_P(Alphas, AdaptiveAlpha, ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

}  // namespace
