/// Tests for src/core/stable_sum.hpp — the order-pinned reduction
/// primitives the float-reduction-order lint rule prescribes for
/// HTD_PARALLEL_READY regions:
///  - StableAccumulator (Neumaier compensation) survives adversarial
///    cancellation that zeroes a naive sum,
///  - stable_sum's pairwise tree stays inside the analytic error bound
///    against a long-double reference while a naive left fold drifts,
///  - the migrated hot loops (KDE kernel evaluation, KMM Gram rows, the
///    bench_micro work-profile kernels) reproduce pinned outputs
///    bit-for-bit with pinned work counters, so a future change to the
///    reduction tree cannot silently move the statistics or the blessed
///    BENCH_micro work_profile.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/stable_sum.hpp"
#include "linalg/matrix.hpp"
#include "ml/kmm.hpp"
#include "ml/one_class_svm.hpp"
#include "obs/obs.hpp"
#include "rng/rng.hpp"
#include "stats/kde.hpp"

namespace {

using htd::core::StableAccumulator;
using htd::core::stable_sum;
using htd::linalg::Matrix;
using htd::linalg::Vector;

// --- compensation -----------------------------------------------------------

TEST(StableAccumulator, RecoversCatastrophicCancellation) {
    // The classic: 1.0 is annihilated by the 1e16 neighbours in a naive
    // left fold, but survives in the compensation term.
    StableAccumulator acc;
    for (const double x : {1e16, 1.0, -1e16}) acc.add(x);
    EXPECT_EQ(acc.value(), 1.0);

    double naive = 0.0;
    for (const double x : {1e16, 1.0, -1e16}) naive += x;
    EXPECT_EQ(naive, 0.0);  // the failure mode being compensated for

    // Neumaier's improvement over Kahan: compensation still works when
    // the large term arrives *after* a small running sum.
    StableAccumulator late_spike;
    for (const double x : {1.0, 1e100, 1.0, -1e100}) late_spike.add(x);
    EXPECT_EQ(late_spike.value(), 2.0);
}

TEST(StableAccumulator, IsConstexprAndStartsAtZero) {
    constexpr double two = [] {
        StableAccumulator a;
        a.add(1.5);
        a.add(0.5);
        return a.value();
    }();
    static_assert(two == 2.0);
    constexpr StableAccumulator empty;
    static_assert(empty.value() == 0.0);
}

// --- pairwise error bounds --------------------------------------------------

TEST(StableSum, StaysInsidePairwiseBoundAgainstLongDoubleReference) {
    // Wide-dynamic-range inputs: magnitudes spread over ~e^{±10}. The
    // pairwise error bound is eps * ceil(log2 n) * sum|x|; the naive left
    // fold's grows linearly in n.
    htd::rng::Rng rng(42);
    for (const std::size_t n : {std::size_t{7}, std::size_t{64},
                                std::size_t{1000}, std::size_t{4097}}) {
        std::vector<double> xs(n);
        long double ref = 0.0L;
        double sum_abs = 0.0;
        for (double& x : xs) {
            x = rng.normal() * std::exp(rng.normal(0.0, 3.0));
            ref += static_cast<long double>(x);
            sum_abs += std::abs(x);
        }
        const double stable = stable_sum(std::span<const double>(xs));
        const double err =
            std::abs(static_cast<double>(static_cast<long double>(stable) - ref));
        const double eps = std::numeric_limits<double>::epsilon();
        const double levels = std::ceil(std::log2(static_cast<double>(n)));
        EXPECT_LE(err, eps * levels * sum_abs) << "n=" << n;

        StableAccumulator acc;
        for (const double x : xs) acc.add(x);
        const double acc_err = std::abs(
            static_cast<double>(static_cast<long double>(acc.value()) - ref));
        // Neumaier: |err| <= 2 eps |sum| + O(n eps^2) sum|x|.
        EXPECT_LE(acc_err, 2.0 * eps * std::abs(static_cast<double>(ref)) +
                               static_cast<double>(n) * eps * eps * sum_abs)
            << "n=" << n;
    }
}

TEST(StableSum, BeatsNaiveLeftFoldOnLongConstantStreams) {
    // 100k copies of 0.1 (not representable in binary): the naive fold
    // accumulates rounding error linearly, the pairwise tree
    // logarithmically. Both are compared against the long-double truth.
    const std::size_t n = 100000;
    const std::vector<double> xs(n, 0.1);
    long double ref = 0.0L;
    double naive = 0.0;
    for (const double x : xs) {
        ref += static_cast<long double>(x);
        naive += x;
    }
    const double stable = stable_sum(std::span<const double>(xs));
    const long double naive_err = std::abs(static_cast<long double>(naive) - ref);
    const long double stable_err =
        std::abs(static_cast<long double>(stable) - ref);
    EXPECT_LT(stable_err, naive_err);

    StableAccumulator acc;
    for (const double x : xs) acc.add(x);
    const long double acc_err =
        std::abs(static_cast<long double>(acc.value()) - ref);
    EXPECT_LE(acc_err, stable_err);
}

TEST(StableSum, HandlesDegenerateSpans) {
    EXPECT_EQ(stable_sum(std::span<const double>()), 0.0);
    const std::vector<double> one = {3.25};
    EXPECT_EQ(stable_sum(std::span<const double>(one)), 3.25);
    const std::vector<double> leaf = {1.0, 2.0, 3.0, 4.0};  // below kLeaf
    EXPECT_EQ(stable_sum(std::span<const double>(leaf)), 10.0);
}

// --- pinned migrated reductions ---------------------------------------------

/// bench_micro's deterministic input generator, replicated byte-for-byte
/// (same Rng stream, same fill order) so the pins below correspond to the
/// blessed BENCH_micro work_profile points.
Matrix gaussian_cloud(std::size_t n, std::size_t d, std::uint64_t seed) {
    htd::rng::Rng rng(seed);
    Matrix data(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c) data(r, c) = rng.normal();
    return data;
}

class WorkProfilePinTest : public ::testing::Test {
protected:
    void SetUp() override {
        auto& registry = htd::obs::Registry::global();
        registry.configure(htd::obs::SinkKind::kJson);
        registry.reset();
    }
    void TearDown() override {
        auto& registry = htd::obs::Registry::global();
        registry.configure(htd::obs::SinkKind::kOff);
        registry.reset();
    }
    static double work(const std::string& name) {
        const auto works = htd::obs::Registry::global().works();
        const auto it = works.find(name);
        return it == works.end() ? -1.0 : it->second;
    }
};

TEST_F(WorkProfilePinTest, AdaptiveKdeBuildReproducesPinnedProfile) {
    // work_profile's AdaptiveKdeBuild points: gaussian_cloud(n, 6, 1),
    // pilot bandwidth 0.5. The kernel-eval count is structural (pinned
    // exactly); the pilot geometric mean flows through the migrated
    // StableAccumulator log-sum, pinned bit-for-bit.
    const struct {
        std::size_t n;
        double kernel_evals;
        double pilot_g;
    } kCases[] = {
        {50, 2500.0, 0x1.0f57c245a96bep-11},
        {100, 10000.0, 0x1.da138e0bf5c37p-12},
        {200, 40000.0, 0x1.adbf16102a0ep-12},
    };
    for (const auto& c : kCases) {
        htd::obs::Registry::global().reset();
        const htd::stats::AdaptiveKde kde(gaussian_cloud(c.n, 6, 1), 0.5);
        EXPECT_EQ(work("work.kde.kernel_evals"), c.kernel_evals)
            << "n=" << c.n;
        EXPECT_EQ(kde.pilot_geometric_mean(), c.pilot_g) << "n=" << c.n;
    }
}

TEST_F(WorkProfilePinTest, OneClassSvmFitReproducesPinnedProfile) {
    // work_profile's OneClassSvmFit points: gaussian_cloud(n, 6, 4). The
    // Gram-cell count is the kernel rows fit computes times n (the
    // initial-gradient rows plus the rows SMO reads first); the SMO
    // iteration count is the sensitive pin — it moves if the kernel values
    // change at all.
    const struct {
        std::size_t n;
        double gram_cells;
        double smo_iterations;
    } kCases[] = {
        {100, 1500.0, 29.0},
        {500, 25500.0, 39.0},
    };
    for (const auto& c : kCases) {
        htd::obs::Registry::global().reset();
        htd::ml::OneClassSvm svm;
        svm.fit(gaussian_cloud(c.n, 6, 4));
        EXPECT_EQ(work("work.svm.gram_cells"), c.gram_cells) << "n=" << c.n;
        EXPECT_EQ(work("work.svm.smo_iterations"), c.smo_iterations)
            << "n=" << c.n;
    }
}

TEST_F(WorkProfilePinTest, KmmSolveReproducesPinnedProfile) {
    // work_profile's KmmSolve points: train = gaussian_cloud(n, 1, 7),
    // test = gaussian_cloud(n, 1, 8) + 1.0. The kappa vector is the
    // migrated Gram reduction; beta[0] pins the full QP solution
    // bit-for-bit on top of the structural cell counts.
    const struct {
        std::size_t n;
        double gram_cells;
        double beta0;
    } kCases[] = {
        {100, 20000.0, 0x1.296e8a7425032p+1},
        {200, 80000.0, 0x1.1056479fe4ab6p+1},
    };
    for (const auto& c : kCases) {
        htd::obs::Registry::global().reset();
        const Matrix train = gaussian_cloud(c.n, 1, 7);
        Matrix test = gaussian_cloud(c.n, 1, 8);
        for (std::size_t r = 0; r < test.rows(); ++r) test(r, 0) += 1.0;
        const htd::ml::KernelMeanMatching kmm;
        const Vector beta = kmm.solve(train, test);
        ASSERT_EQ(beta.size(), c.n);
        EXPECT_EQ(work("work.kmm.gram_cells"), c.gram_cells) << "n=" << c.n;
        EXPECT_EQ(beta[0], c.beta0) << "n=" << c.n;
    }
}

}  // namespace
