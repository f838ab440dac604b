/// Tests for the one-class SVM (SMO) trusted-region learner.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ml/one_class_svm.hpp"
#include "obs/obs.hpp"
#include "rng/rng.hpp"

namespace {

using htd::linalg::Matrix;
using htd::linalg::Vector;
using htd::ml::OneClassSvm;
using htd::rng::Rng;

Matrix blob(Rng& rng, std::size_t n, std::size_t d, double mean, double sd) {
    Matrix data(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c) data(r, c) = rng.normal(mean, sd);
    return data;
}

/// bench_micro's work-profile input generator (same Rng stream and fill
/// order), so the pins below sit on the BM_OneClassSvmFit inputs.
Matrix gaussian_cloud(std::size_t n, std::size_t d, std::uint64_t seed) {
    Rng rng(seed);
    Matrix data(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c) data(r, c) = rng.normal();
    return data;
}

TEST(OneClassSvm, RejectsBadOptions) {
    OneClassSvm::Options opts;
    opts.nu = 0.0;
    EXPECT_THROW(OneClassSvm{opts}, std::invalid_argument);
    opts.nu = 1.0;
    EXPECT_THROW(OneClassSvm{opts}, std::invalid_argument);
    opts.nu = 0.5;
    opts.max_training_samples = 0;
    EXPECT_THROW(OneClassSvm{opts}, std::invalid_argument);
    opts.max_training_samples = 10;
    opts.tolerance = 0.0;
    EXPECT_THROW(OneClassSvm{opts}, std::invalid_argument);
    opts.tolerance = 1e-4;
    opts.gamma_scale = 0.0;
    EXPECT_THROW(OneClassSvm{opts}, std::invalid_argument);
}

TEST(OneClassSvm, RejectsEmptyFit) {
    OneClassSvm svm;
    EXPECT_THROW(svm.fit(Matrix()), std::invalid_argument);
}

TEST(OneClassSvm, ThrowsBeforeFit) {
    const OneClassSvm svm;
    EXPECT_THROW((void)svm.decision_value(Vector{0.0}), std::logic_error);
}

TEST(OneClassSvm, ContainsTrainingCore) {
    Rng rng(1);
    const Matrix data = blob(rng, 200, 2, 0.0, 1.0);
    OneClassSvm::Options opts;
    opts.nu = 0.1;
    OneClassSvm svm(opts);
    svm.fit(data);
    // The training mean must be deep inside the region.
    EXPECT_TRUE(svm.contains(Vector{0.0, 0.0}));
    // Most training points are inside (1 - nu of them, approximately).
    std::size_t inside = 0;
    for (std::size_t r = 0; r < data.rows(); ++r) {
        if (svm.contains(data.row(r))) ++inside;
    }
    EXPECT_GT(inside, 160u);
}

TEST(OneClassSvm, RejectsFarOutliers) {
    Rng rng(2);
    const Matrix data = blob(rng, 200, 2, 0.0, 1.0);
    OneClassSvm svm;
    svm.fit(data);
    EXPECT_FALSE(svm.contains(Vector{15.0, -15.0}));
    EXPECT_FALSE(svm.contains(Vector{50.0, 0.0}));
}

TEST(OneClassSvm, DecisionValueDecreasesWithDistance) {
    Rng rng(3);
    const Matrix data = blob(rng, 150, 1, 0.0, 1.0);
    OneClassSvm svm;
    svm.fit(data);
    const double d0 = svm.decision_value(Vector{0.0});
    const double d3 = svm.decision_value(Vector{3.0});
    const double d6 = svm.decision_value(Vector{6.0});
    EXPECT_GT(d0, d3);
    EXPECT_GT(d3, d6);
}

TEST(OneClassSvm, NuControlsOutlierFraction) {
    Rng rng(4);
    const Matrix data = blob(rng, 400, 2, 0.0, 1.0);
    auto train_and_count = [&](double nu) {
        OneClassSvm::Options opts;
        opts.nu = nu;
        OneClassSvm svm(opts);
        svm.fit(data);
        std::size_t outside = 0;
        for (std::size_t r = 0; r < data.rows(); ++r) {
            if (!svm.contains(data.row(r))) ++outside;
        }
        return static_cast<double>(outside) / static_cast<double>(data.rows());
    };
    const double frac_small = train_and_count(0.02);
    const double frac_large = train_and_count(0.3);
    EXPECT_LT(frac_small, frac_large);
    // nu upper-bounds the fraction of margin errors (training outliers).
    EXPECT_LE(frac_small, 0.06);
    EXPECT_LE(frac_large, 0.40);
}

TEST(OneClassSvm, SupportVectorFractionAtLeastNu) {
    Rng rng(5);
    const Matrix data = blob(rng, 300, 2, 0.0, 1.0);
    OneClassSvm::Options opts;
    opts.nu = 0.2;
    OneClassSvm svm(opts);
    svm.fit(data);
    EXPECT_GE(svm.support_vector_count(), 300u * 2u / 10u);  // >= nu * n
}

TEST(OneClassSvm, SubsamplingCapRespected) {
    Rng rng(6);
    const Matrix data = blob(rng, 5000, 2, 0.0, 1.0);
    OneClassSvm::Options opts;
    opts.max_training_samples = 500;
    OneClassSvm svm(opts);
    svm.fit(data);
    EXPECT_LE(svm.support_vector_count(), 500u);
    // Most of the data is inside the region (the RBF one-class SVM does not
    // guarantee the exact centroid is included — with a dense ring of
    // support vectors the interior can score slightly below rho — so the
    // contract is about data coverage, not about any single point).
    std::size_t inside = 0;
    for (std::size_t r = 0; r < data.rows(); ++r) {
        if (svm.contains(data.row(r))) ++inside;
    }
    EXPECT_GT(inside, data.rows() * 7 / 10);
    EXPECT_FALSE(svm.contains(Vector{20.0, 20.0}));
}

TEST(OneClassSvm, TwoBlobRegionExcludesGap) {
    Rng rng(7);
    Matrix data = blob(rng, 150, 1, -6.0, 0.5);
    const Matrix other = blob(rng, 150, 1, 6.0, 0.5);
    for (std::size_t r = 0; r < other.rows(); ++r) data.append_row(other.row(r));
    OneClassSvm::Options opts;
    opts.gamma_scale = 8.0;  // tight kernel resolves the two modes
    OneClassSvm svm(opts);
    svm.fit(data);
    EXPECT_TRUE(svm.contains(Vector{-6.0}));
    EXPECT_TRUE(svm.contains(Vector{6.0}));
    EXPECT_FALSE(svm.contains(Vector{0.0}));
}

TEST(OneClassSvm, GammaScaleTightensBoundary) {
    Rng rng(8);
    const Matrix data = blob(rng, 200, 2, 0.0, 1.0);
    OneClassSvm::Options loose_opts;
    loose_opts.gamma_scale = 0.5;
    OneClassSvm loose(loose_opts);
    loose.fit(data);
    OneClassSvm::Options tight_opts;
    tight_opts.gamma_scale = 8.0;
    OneClassSvm tight(tight_opts);
    tight.fit(data);
    EXPECT_GT(tight.effective_gamma(), loose.effective_gamma());
    // Decision values are not comparable across gammas; compare the covered
    // region instead: the tight boundary admits at most as many points of a
    // probe ring at 2.5 sigma as the loose one.
    std::size_t loose_in = 0, tight_in = 0;
    for (int k = 0; k < 32; ++k) {
        const double angle = 2.0 * 3.14159265358979 * k / 32.0;
        const Vector probe{2.5 * std::cos(angle), 2.5 * std::sin(angle)};
        loose_in += loose.contains(probe) ? 1 : 0;
        tight_in += tight.contains(probe) ? 1 : 0;
    }
    EXPECT_LE(tight_in, loose_in);
}

TEST(OneClassSvm, WhitenSeparatesAnisotropicOutliers) {
    // Cloud elongated along (1,1): a transverse outlier at modest Euclidean
    // distance is inside the standardized boundary but outside the whitened
    // one — the exact situation of the golden-chip fingerprint cloud.
    Rng rng(9);
    Matrix data(300, 2);
    for (std::size_t r = 0; r < 300; ++r) {
        const double t = rng.normal(0.0, 1.0);
        data(r, 0) = t + rng.normal(0.0, 0.02);
        data(r, 1) = t - rng.normal(0.0, 0.02);
    }
    OneClassSvm::Options plain_opts;
    OneClassSvm plain(plain_opts);
    plain.fit(data);
    OneClassSvm::Options white_opts;
    white_opts.whiten = true;
    OneClassSvm white(white_opts);
    white.fit(data);

    const Vector transverse{0.3, -0.3};  // 0.42 off-axis, tiny along the cloud
    // The whitened model sees the probe as many sigma away; relative to its
    // own on-cloud score, it rejects the transverse probe far more strongly
    // than the standardized model does.
    const double plain_gap =
        plain.decision_value(Vector{0.0, 0.0}) - plain.decision_value(transverse);
    const double white_gap =
        white.decision_value(Vector{0.0, 0.0}) - white.decision_value(transverse);
    EXPECT_FALSE(white.contains(transverse));
    EXPECT_GT(white_gap, plain_gap);
    // Both keep the cloud core.
    EXPECT_TRUE(white.contains(Vector{0.5, 0.5}));
}

TEST(OneClassSvm, DecisionValuesBatchMatchesScalar) {
    Rng rng(10);
    const Matrix data = blob(rng, 100, 2, 0.0, 1.0);
    OneClassSvm svm;
    svm.fit(data);
    const Matrix probes = blob(rng, 10, 2, 0.0, 2.0);
    const Vector batch = svm.decision_values(probes);
    for (std::size_t r = 0; r < probes.rows(); ++r) {
        EXPECT_DOUBLE_EQ(batch[r], svm.decision_value(probes.row(r)));
    }
}

TEST(OneClassSvm, InputDimensionMismatchThrows) {
    Rng rng(11);
    const Matrix data = blob(rng, 50, 3, 0.0, 1.0);
    OneClassSvm svm;
    svm.fit(data);
    EXPECT_THROW((void)svm.decision_value(Vector{0.0, 0.0}), std::invalid_argument);
}

TEST(OneClassSvm, FitReproducesPinnedSolution) {
    // Pinned bit-for-bit: every kernel row cell equals rbf_kernel on its
    // pair, and each initial g_i sums over ascending j, so a change to the
    // kernel arithmetic or the summation order moves these outputs.
    // nu * n is an integer for the default nu at n = 100, 500 and 2000, so
    // the remainder alpha is exactly zero there and its row is skipped;
    // nu = 0.07 at n = 150 gives a nonzero remainder. n = 2500 exceeds the
    // 2000-row cap and runs the subsample path.
    const struct {
        std::size_t n;
        double nu;
        double gamma;
        bool whiten;
        double rho;
        std::size_t iterations;
        std::size_t support_vectors;
        double probe_value;
    } kCases[] = {
        {100, 0.05, 0.0, false, 0x1.7d06f631256bcp-2, 29, 11, 0x1.610c6b5cb9344p-3},
        {500, 0.05, 0.0, false, 0x1.4b8d69c6a2b3fp-2, 39, 29, 0x1.50baf707f12fcp-3},
        {2500, 0.05, 0.0, false, 0x1.40898eeecd26ap-2, 111, 104, 0x1.5d2b1118c1deap-3},
        {500, 0.05, 0.0, true, 0x1.4a67b6e39b5fbp-2, 64, 32, 0x1.548cb443439b8p-3},
        {500, 0.05, 0.3, false, 0x1.a6e1455e6104fp-6, 275, 128, 0x1.a880604bf9146p-7},
        {150, 0.07, 0.0, false, 0x1.7d732185a4befp-2, 56, 18, 0x1.58275c9bfc4b2p-3},
    };
    const Vector probe{0.3, -0.2, 0.1, 0.5, -0.4, 0.0};
    for (const auto& c : kCases) {
        OneClassSvm::Options opts;
        opts.nu = c.nu;
        opts.gamma = c.gamma;
        opts.whiten = c.whiten;
        OneClassSvm svm(opts);
        svm.fit(gaussian_cloud(c.n, 6, 4));
        const std::string where = "n=" + std::to_string(c.n) +
                                  " nu=" + std::to_string(c.nu) +
                                  " gamma=" + std::to_string(c.gamma) +
                                  " whiten=" + std::to_string(c.whiten);
        EXPECT_EQ(svm.rho(), c.rho) << where;
        EXPECT_EQ(svm.iterations_used(), c.iterations) << where;
        EXPECT_EQ(svm.support_vector_count(), c.support_vectors) << where;
        EXPECT_EQ(svm.decision_value(probe), c.probe_value) << where;
    }
}

/// The numeric attributes of the last recorded span called `name`.
std::vector<std::pair<std::string, double>> last_span_attrs(const std::string& name) {
    const auto spans = htd::obs::Registry::global().spans();
    for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
        if (it->name == name) return it->attrs;
    }
    ADD_FAILURE() << "no span " << name;
    return {};
}

double attr(const std::vector<std::pair<std::string, double>>& attrs,
            const std::string& key) {
    for (const auto& [k, v] : attrs) {
        if (k == key) return v;
    }
    ADD_FAILURE() << "no attribute " << key;
    return -1.0;
}

class OneClassSvmSpanTest : public ::testing::Test {
protected:
    void SetUp() override {
        htd::obs::Registry::global().configure(htd::obs::SinkKind::kJson);
        htd::obs::Registry::global().reset();
    }
    void TearDown() override {
        htd::obs::Registry::global().configure(htd::obs::SinkKind::kOff);
        htd::obs::Registry::global().reset();
    }
};

TEST_F(OneClassSvmSpanTest, FitReportsKernelRowsAndConvergence) {
    const Matrix data = gaussian_cloud(100, 6, 4);

    OneClassSvm svm;
    svm.fit(data);
    auto attrs = last_span_attrs("svm.fit");
    EXPECT_EQ(attr(attrs, "converged"), 1.0);
    // The 5 initial-gradient rows (the zero remainder alpha is skipped)
    // plus the 10 rows the 29 SMO steps read first.
    EXPECT_EQ(attr(attrs, "kernel_rows"), 15.0);

    OneClassSvm::Options opts;
    opts.max_iterations = 1;
    OneClassSvm capped(opts);
    capped.fit(data);
    attrs = last_span_attrs("svm.fit");
    EXPECT_EQ(capped.iterations_used(), 1u);
    EXPECT_EQ(attr(attrs, "converged"), 0.0);
    // One step reads rows i and j; j has a nonzero alpha, so only i is new.
    EXPECT_EQ(attr(attrs, "kernel_rows"), 6.0);
}

/// Property sweep: for any reasonable nu the model keeps its own mean inside
/// and a 10-sigma outlier outside.
class SvmNuSweep : public ::testing::TestWithParam<double> {};

TEST_P(SvmNuSweep, MeanInsideOutlierOutside) {
    Rng rng(12);
    const Matrix data = blob(rng, 250, 3, 2.0, 0.7);
    OneClassSvm::Options opts;
    opts.nu = GetParam();
    OneClassSvm svm(opts);
    svm.fit(data);
    EXPECT_TRUE(svm.contains(Vector{2.0, 2.0, 2.0}));
    EXPECT_FALSE(svm.contains(Vector{9.0, 9.0, 9.0}));
}

INSTANTIATE_TEST_SUITE_P(Nus, SvmNuSweep, ::testing::Values(0.01, 0.05, 0.1, 0.25, 0.5));

}  // namespace
