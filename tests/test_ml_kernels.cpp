/// Tests for the kernel-function utilities.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "linalg/decompositions.hpp"
#include "ml/kernel_functions.hpp"
#include "rng/rng.hpp"

namespace {

using htd::linalg::Matrix;
using htd::ml::gram_matrix;
using htd::ml::KernelFn;

TEST(Kernels, RbfSelfSimilarityIsOne) {
    const KernelFn k = htd::ml::rbf_kernel(0.7);
    const double x[] = {1.0, 2.0};
    EXPECT_DOUBLE_EQ(k(x, x), 1.0);
}

TEST(Kernels, RbfDecaysWithDistance) {
    const KernelFn k = htd::ml::rbf_kernel(1.0);
    const double a[] = {0.0};
    const double b[] = {1.0};
    const double c[] = {2.0};
    EXPECT_GT(k(a, b), k(a, c));
    EXPECT_NEAR(k(a, b), std::exp(-1.0), 1e-12);
}

TEST(Kernels, RbfRejectsBadGamma) {
    EXPECT_THROW((void)htd::ml::rbf_kernel(0.0), std::invalid_argument);
    EXPECT_THROW((void)htd::ml::rbf_kernel(-1.0), std::invalid_argument);
}

TEST(Kernels, LinearIsDotProduct) {
    const KernelFn k = htd::ml::linear_kernel();
    const double a[] = {1.0, 2.0};
    const double b[] = {3.0, 4.0};
    EXPECT_DOUBLE_EQ(k(a, b), 11.0);
}

TEST(Kernels, PolynomialKnownValue) {
    const KernelFn k = htd::ml::polynomial_kernel(2, 1.0, 1.0);
    const double a[] = {1.0};
    const double b[] = {2.0};
    EXPECT_DOUBLE_EQ(k(a, b), 9.0);  // (2 + 1)^2
    EXPECT_THROW((void)htd::ml::polynomial_kernel(0), std::invalid_argument);
}

TEST(Kernels, DimMismatchThrows) {
    const KernelFn k = htd::ml::rbf_kernel(1.0);
    const double a[] = {1.0};
    const double b[] = {1.0, 2.0};
    EXPECT_THROW((void)k(a, b), std::invalid_argument);
}

TEST(Kernels, MedianHeuristicPositive) {
    htd::rng::Rng rng(3);
    Matrix data(100, 4);
    for (std::size_t r = 0; r < 100; ++r)
        for (std::size_t c = 0; c < 4; ++c) data(r, c) = rng.normal();
    const double gamma = htd::ml::median_heuristic_gamma(data);
    EXPECT_GT(gamma, 0.0);
    // For standard normal data in 4-D, median pairwise distance ~ sqrt(2*4)
    // => gamma ~ 1/(2*8) ~ 0.06; sanity band:
    EXPECT_GT(gamma, 0.01);
    EXPECT_LT(gamma, 0.5);
}

TEST(Kernels, MedianHeuristicReproducesPinnedBits) {
    // gamma for standard-normal clouds in 6-D (the bench_micro generator),
    // pinned bit-for-bit: both branches must keep the same pairs in the
    // same order.
    const auto cloud = [](std::size_t n) {
        htd::rng::Rng rng(4);
        Matrix data(n, 6);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < 6; ++c) data(r, c) = rng.normal();
        return data;
    };
    // All 4950 pairs: an even count, so the median interpolates.
    EXPECT_EQ(htd::ml::median_heuristic_gamma(cloud(100)), 0x1.742f4c993079dp-5);
    // 1999000 pairs > 100000: every 19th flat pair index.
    EXPECT_EQ(htd::ml::median_heuristic_gamma(cloud(2000)), 0x1.7e87a4bc607c8p-5);
}

TEST(Kernels, MedianHeuristicNeedsTwoRows) {
    EXPECT_THROW((void)htd::ml::median_heuristic_gamma(Matrix{{1.0}}),
                 std::invalid_argument);
}

TEST(Kernels, GramMatrixSymmetricPsdDiagonalOnes) {
    htd::rng::Rng rng(4);
    Matrix data(20, 3);
    for (std::size_t r = 0; r < 20; ++r)
        for (std::size_t c = 0; c < 3; ++c) data(r, c) = rng.normal();
    const Matrix g = gram_matrix(htd::ml::rbf_kernel(0.5), data);
    EXPECT_TRUE(g.is_symmetric());
    for (std::size_t i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(g(i, i), 1.0);
    // PSD check via eigenvalues.
    const auto eig = htd::linalg::symmetric_eigen(g);
    EXPECT_GE(eig.values[19], -1e-9);
}

TEST(Kernels, CrossGramShape) {
    Matrix a(3, 2, 1.0);
    Matrix b(5, 2, 2.0);
    const Matrix g = gram_matrix(htd::ml::linear_kernel(), a, b);
    EXPECT_EQ(g.rows(), 3u);
    EXPECT_EQ(g.cols(), 5u);
    EXPECT_DOUBLE_EQ(g(0, 0), 4.0);
}

}  // namespace
