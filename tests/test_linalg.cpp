/// Unit and property tests for the dense linear-algebra substrate.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/decompositions.hpp"
#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace {

using htd::linalg::Cholesky;
using htd::linalg::EigenResult;
using htd::linalg::Lu;
using htd::linalg::Matrix;
using htd::linalg::Qr;
using htd::linalg::symmetric_eigen;
using htd::linalg::Vector;

// --- Vector -------------------------------------------------------------------

TEST(Vector, DefaultIsEmpty) {
    Vector v;
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.size(), 0u);
}

TEST(Vector, SizeConstructorZeroFills) {
    Vector v(4);
    EXPECT_EQ(v.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(v[i], 0.0);
}

TEST(Vector, FillConstructor) {
    Vector v(3, 2.5);
    EXPECT_EQ(v.sum(), 7.5);
}

TEST(Vector, InitializerList) {
    Vector v{1.0, 2.0, 3.0};
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(v[2], 3.0);
}

TEST(Vector, AtThrowsOutOfRange) {
    Vector v(2);
    EXPECT_THROW((void)v.at(2), std::out_of_range);
}

TEST(Vector, AdditionAndSubtraction) {
    Vector a{1.0, 2.0};
    Vector b{3.0, 5.0};
    EXPECT_EQ((a + b), (Vector{4.0, 7.0}));
    EXPECT_EQ((b - a), (Vector{2.0, 3.0}));
}

TEST(Vector, AdditionDimensionMismatchThrows) {
    Vector a{1.0};
    Vector b{1.0, 2.0};
    EXPECT_THROW(a += b, std::invalid_argument);
}

TEST(Vector, ScalarOps) {
    Vector v{2.0, 4.0};
    EXPECT_EQ((v * 0.5), (Vector{1.0, 2.0}));
    EXPECT_EQ((0.5 * v), (Vector{1.0, 2.0}));
    EXPECT_EQ((v / 2.0), (Vector{1.0, 2.0}));
    EXPECT_THROW(v /= 0.0, std::invalid_argument);
}

TEST(Vector, NormAndMean) {
    Vector v{3.0, 4.0};
    EXPECT_DOUBLE_EQ(v.norm(), 5.0);
    EXPECT_DOUBLE_EQ(v.mean(), 3.5);
}

TEST(Vector, MinMax) {
    Vector v{3.0, -1.0, 2.0};
    EXPECT_EQ(v.min(), -1.0);
    EXPECT_EQ(v.max(), 3.0);
}

TEST(Vector, EmptyStatisticsThrow) {
    Vector v;
    EXPECT_THROW((void)v.mean(), std::invalid_argument);
    EXPECT_THROW((void)v.min(), std::invalid_argument);
    EXPECT_THROW((void)v.max(), std::invalid_argument);
}

TEST(Vector, DotProduct) {
    EXPECT_DOUBLE_EQ(htd::linalg::dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0);
    EXPECT_THROW((void)htd::linalg::dot(Vector{1.0}, Vector{1.0, 2.0}),
                 std::invalid_argument);
}

TEST(Vector, SquaredDistance) {
    EXPECT_DOUBLE_EQ(htd::linalg::squared_distance({0.0, 0.0}, {3.0, 4.0}), 25.0);
}

// --- Matrix ----------------------------------------------------------------------

TEST(Matrix, InitializerListShape) {
    Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m(1, 2), 6.0);
}

TEST(Matrix, RaggedInitializerThrows) {
    EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityAndDiagonal) {
    const Matrix eye = Matrix::identity(3);
    EXPECT_EQ(eye(0, 0), 1.0);
    EXPECT_EQ(eye(0, 1), 0.0);
    const Matrix d = Matrix::diagonal(Vector{2.0, 3.0});
    EXPECT_EQ(d(1, 1), 3.0);
    EXPECT_EQ(d(1, 0), 0.0);
}

TEST(Matrix, RowColAccess) {
    Matrix m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(m.row(1), (Vector{3.0, 4.0}));
    EXPECT_EQ(m.col(0), (Vector{1.0, 3.0}));
    EXPECT_THROW((void)m.row(2), std::out_of_range);
    EXPECT_THROW((void)m.col(5), std::out_of_range);
}

TEST(Matrix, SetRowAndCol) {
    Matrix m(2, 2);
    m.set_row(0, Vector{1.0, 2.0});
    m.set_col(1, Vector{7.0, 8.0});
    EXPECT_EQ(m(0, 0), 1.0);
    EXPECT_EQ(m(0, 1), 7.0);
    EXPECT_EQ(m(1, 1), 8.0);
    EXPECT_THROW(m.set_row(0, Vector{1.0}), std::invalid_argument);
}

TEST(Matrix, AppendRowGrowsAndChecksWidth) {
    Matrix m;
    m.append_row(Vector{1.0, 2.0});
    m.append_row(Vector{3.0, 4.0});
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_THROW(m.append_row(Vector{1.0}), std::invalid_argument);
}

TEST(Matrix, Transpose) {
    Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
    const Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t(2, 1), 6.0);
    EXPECT_EQ(t.transposed(), m);
}

TEST(Matrix, Block) {
    Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}};
    const Matrix b = m.block(1, 1, 2, 2);
    EXPECT_EQ(b, (Matrix{{5.0, 6.0}, {8.0, 9.0}}));
    EXPECT_THROW((void)m.block(2, 2, 2, 2), std::out_of_range);
}

TEST(Matrix, MatmulAgainstHandComputed) {
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{5.0, 6.0}, {7.0, 8.0}};
    EXPECT_EQ(a.matmul(b), (Matrix{{19.0, 22.0}, {43.0, 50.0}}));
}

TEST(Matrix, MatmulShapeMismatchThrows) {
    Matrix a(2, 3);
    Matrix b(2, 3);
    EXPECT_THROW((void)a.matmul(b), std::invalid_argument);
}

TEST(Matrix, Matvec) {
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(a.matvec(Vector{1.0, 1.0}), (Vector{3.0, 7.0}));
}

/// The reference matvec contract: each output element is one
/// left-to-right sum over the columns, starting from +0.0.
Vector naive_matvec(const Matrix& a, const Vector& v) {
    Vector out(a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < a.cols(); ++j) acc += a(i, j) * v[j];
        out[i] = acc;
    }
    return out;
}

void expect_matvec_bits(const Matrix& a, const Vector& v, const std::string& label) {
    const Vector got = a.matvec(v);
    const Vector want = naive_matvec(a, v);
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << label << " row " << i << ": " << got[i] << " vs " << want[i];
    }
}

/// Terms spread over 2^-20 .. 2^20, so any reassociation of a row's sum
/// shows up in the low bits.
double spread_normal(htd::rng::Rng& rng, std::size_t k) {
    return std::ldexp(rng.normal(), static_cast<int>(k % 41) - 20);
}

TEST(Matrix, MatvecBitsMatchLeftToRightRowSumsForEveryTail) {
    // Every NaN here carries the bit pattern the hardware gives a fresh
    // NaN (Inf - Inf, 0 * Inf), so a NaN result does not depend on which
    // operand of an add the compiler puts first; the pin is on the order
    // of the sum, which is what a row-blocked kernel must keep.
    volatile double inf_v = std::numeric_limits<double>::infinity();
    const double inf = inf_v;
    const double nan = inf - inf;
    const double subnormal = std::numeric_limits<double>::denorm_min() * 12345.0;
    const double specials[] = {-0.0, inf, -inf, nan, subnormal};

    htd::rng::Rng rng(2024);
    for (std::size_t rows = 0; rows <= 9; ++rows) {
        for (std::size_t cols = 0; cols <= 9; ++cols) {
            Matrix a(rows, cols);
            Vector v(cols);
            std::size_t k = 0;
            for (std::size_t i = 0; i < rows; ++i)
                for (std::size_t j = 0; j < cols; ++j) a(i, j) = spread_normal(rng, k++);
            for (std::size_t j = 0; j < cols; ++j) v[j] = spread_normal(rng, k++);
            const std::string shape =
                std::to_string(rows) + "x" + std::to_string(cols);
            expect_matvec_bits(a, v, shape + " finite");

            // Sprinkle the special values over the matrix and the vector.
            for (std::size_t i = 0; i < rows; ++i)
                for (std::size_t j = 0; j < cols; ++j)
                    if ((3 * i + j) % 4 == 1) a(i, j) = specials[(i + 2 * j) % 5];
            if (cols > 1) v[1] = -0.0;
            if (cols > 4) v[4] = subnormal;
            if (cols > 7) v[7] = (rows % 2 == 0) ? nan : -inf;
            expect_matvec_bits(a, v, shape + " specials");
        }
    }
}

TEST(Matrix, MatvecBitsMatchOnSymmetricRbfGram) {
    // A KMM-sized symmetric RBF Gram: 1001 = 4 * 250 + 1 rows.
    constexpr std::size_t kN = 1001;
    htd::rng::Rng rng(7);
    std::vector<double> x(kN);
    for (double& xi : x) xi = rng.normal();
    Matrix k(kN, kN);
    for (std::size_t i = 0; i < kN; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            const double d = x[i] - x[j];
            k(i, j) = std::exp(-0.5 * d * d);
            k(j, i) = k(i, j);
        }
    }
    Vector beta(kN);
    for (std::size_t i = 0; i < kN; ++i) beta[i] = rng.uniform(0.0, 3.0);
    expect_matvec_bits(k, beta, "1001x1001 RBF Gram");
}

TEST(Matrix, IsSymmetric) {
    Matrix s{{1.0, 2.0}, {2.0, 5.0}};
    Matrix ns{{1.0, 2.0}, {2.1, 5.0}};
    EXPECT_TRUE(s.is_symmetric());
    EXPECT_FALSE(ns.is_symmetric());
    EXPECT_FALSE(Matrix(2, 3).is_symmetric());
}

TEST(Matrix, Outer) {
    const Matrix o = htd::linalg::outer(Vector{1.0, 2.0}, Vector{3.0, 4.0});
    EXPECT_EQ(o, (Matrix{{3.0, 4.0}, {6.0, 8.0}}));
}

TEST(Matrix, FrobeniusNorm) {
    Matrix m{{3.0, 0.0}, {0.0, 4.0}};
    EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
}

// --- Cholesky ---------------------------------------------------------------------

TEST(Cholesky, FactorsKnownMatrix) {
    const Matrix a{{4.0, 2.0}, {2.0, 5.0}};
    const Cholesky chol(a);
    const Matrix l = chol.l();
    EXPECT_NEAR(l(0, 0), 2.0, 1e-12);
    EXPECT_NEAR(l(1, 0), 1.0, 1e-12);
    EXPECT_NEAR(l(1, 1), 2.0, 1e-12);
}

TEST(Cholesky, SolveRecoversSolution) {
    const Matrix a{{4.0, 2.0}, {2.0, 5.0}};
    const Vector x_true{1.0, -2.0};
    const Vector b = a.matvec(x_true);
    const Vector x = Cholesky(a).solve(b);
    EXPECT_NEAR(x[0], x_true[0], 1e-12);
    EXPECT_NEAR(x[1], x_true[1], 1e-12);
}

TEST(Cholesky, RejectsNonSquare) {
    EXPECT_THROW(Cholesky(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, RejectsNonSymmetric) {
    EXPECT_THROW(Cholesky(Matrix{{1.0, 2.0}, {0.0, 1.0}}), std::invalid_argument);
}

TEST(Cholesky, RejectsIndefinite) {
    EXPECT_THROW(Cholesky(Matrix{{1.0, 2.0}, {2.0, 1.0}}), std::domain_error);
}

TEST(Cholesky, LogDeterminant) {
    const Matrix a{{4.0, 0.0}, {0.0, 9.0}};
    EXPECT_NEAR(Cholesky(a).log_determinant(), std::log(36.0), 1e-12);
}

// --- LU ---------------------------------------------------------------------------

TEST(Lu, SolveMatchesKnownSolution) {
    const Matrix a{{0.0, 2.0}, {1.0, 1.0}};  // needs pivoting
    const Vector x_true{3.0, -1.0};
    const Vector x = Lu(a).solve(a.matvec(x_true));
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], -1.0, 1e-12);
}

TEST(Lu, Determinant) {
    EXPECT_NEAR(Lu(Matrix{{2.0, 0.0}, {0.0, 3.0}}).determinant(), 6.0, 1e-12);
    EXPECT_NEAR(Lu(Matrix{{0.0, 1.0}, {1.0, 0.0}}).determinant(), -1.0, 1e-12);
}

TEST(Lu, SingularThrows) {
    EXPECT_THROW(Lu(Matrix{{1.0, 2.0}, {2.0, 4.0}}), std::domain_error);
}

TEST(Lu, InverseTimesSelfIsIdentity) {
    const Matrix a{{3.0, 1.0, 0.0}, {1.0, 4.0, 2.0}, {0.0, 1.0, 5.0}};
    const Matrix inv = Lu(a).inverse();
    const Matrix eye = a.matmul(inv);
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_NEAR(eye(i, j), i == j ? 1.0 : 0.0, 1e-12);
        }
    }
}

// --- QR ----------------------------------------------------------------------------

TEST(Qr, ExactSolveSquare) {
    const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
    const Vector x_true{1.0, 2.0};
    const Vector x = Qr(a).solve(a.matvec(x_true));
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Qr, LeastSquaresMatchesNormalEquations) {
    // Overdetermined line fit: y = 2x + 1 with exact data.
    Matrix a(4, 2);
    Vector b(4);
    for (std::size_t i = 0; i < 4; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = static_cast<double>(i);
        b[i] = 1.0 + 2.0 * static_cast<double>(i);
    }
    const Vector x = Qr(a).solve(b);
    EXPECT_NEAR(x[0], 1.0, 1e-10);
    EXPECT_NEAR(x[1], 2.0, 1e-10);
}

TEST(Qr, RankDeficientThrows) {
    Matrix a(3, 2);
    for (std::size_t i = 0; i < 3; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = 2.0;  // second column is a multiple of the first
    }
    EXPECT_THROW((void)Qr(a).solve(Vector(3)), std::domain_error);
}

TEST(Qr, RequiresTall) {
    EXPECT_THROW(Qr(Matrix(2, 3)), std::invalid_argument);
}

// --- symmetric eigen ----------------------------------------------------------------

TEST(SymmetricEigen, DiagonalMatrix) {
    const EigenResult r = symmetric_eigen(Matrix::diagonal(Vector{1.0, 3.0, 2.0}));
    EXPECT_NEAR(r.values[0], 3.0, 1e-12);
    EXPECT_NEAR(r.values[1], 2.0, 1e-12);
    EXPECT_NEAR(r.values[2], 1.0, 1e-12);
}

TEST(SymmetricEigen, KnownTwoByTwo) {
    // eigenvalues of [[2,1],[1,2]] are 3 and 1
    const EigenResult r = symmetric_eigen(Matrix{{2.0, 1.0}, {1.0, 2.0}});
    EXPECT_NEAR(r.values[0], 3.0, 1e-12);
    EXPECT_NEAR(r.values[1], 1.0, 1e-12);
}

TEST(SymmetricEigen, RejectsNonSymmetric) {
    EXPECT_THROW((void)symmetric_eigen(Matrix{{1.0, 2.0}, {0.0, 1.0}}),
                 std::invalid_argument);
}

/// Property sweep: reconstruction A = V diag(lambda) V^T and orthonormality
/// for random symmetric matrices of several sizes.
class EigenProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenProperty, ReconstructionAndOrthonormality) {
    const std::size_t n = GetParam();
    htd::rng::Rng rng(42 + n);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i; j < n; ++j) {
            a(i, j) = rng.normal();
            a(j, i) = a(i, j);
        }
    }
    const EigenResult r = symmetric_eigen(a);

    // eigenvalues sorted descending
    for (std::size_t k = 1; k < n; ++k) EXPECT_GE(r.values[k - 1], r.values[k]);

    // V V^T = I
    const Matrix vvt = r.vectors.matmul(r.vectors.transposed());
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_NEAR(vvt(i, j), i == j ? 1.0 : 0.0, 1e-9);
        }
    }

    // A = V diag V^T
    Matrix recon(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < n; ++k) {
                acc += r.vectors(i, k) * r.values[k] * r.vectors(j, k);
            }
            recon(i, j) = acc;
        }
    }
    EXPECT_LT((recon - a).max_abs(), 1e-9 * (1.0 + a.max_abs()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenProperty, ::testing::Values(1, 2, 3, 5, 8, 13));

/// Property sweep: Cholesky/LU/QR all solve the same random SPD system.
class SolverProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SolverProperty, AllSolversAgreeOnSpdSystems) {
    const std::size_t n = GetParam();
    htd::rng::Rng rng(7 * n + 1);
    // SPD matrix: A = B B^T + n I
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
    Matrix a = b.matmul(b.transposed());
    for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);

    Vector x_true(n);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = rng.normal();
    const Vector rhs = a.matvec(x_true);

    const Vector x_chol = Cholesky(a).solve(rhs);
    const Vector x_lu = Lu(a).solve(rhs);
    const Vector x_qr = Qr(a).solve(rhs);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x_chol[i], x_true[i], 1e-8);
        EXPECT_NEAR(x_lu[i], x_true[i], 1e-8);
        EXPECT_NEAR(x_qr[i], x_true[i], 1e-8);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolverProperty, ::testing::Values(1, 2, 4, 8, 16, 32));

TEST(SolveSpdRidge, RegularizesSemiDefinite) {
    // Rank-1 PSD matrix; plain Cholesky fails, the ridge version succeeds.
    const Matrix a = htd::linalg::outer(Vector{1.0, 1.0}, Vector{1.0, 1.0});
    EXPECT_THROW((void)Cholesky(a), std::domain_error);
    const Vector x = htd::linalg::solve_spd_ridge(a, Vector{2.0, 2.0});
    // Solution of the regularized system still reproduces b approximately.
    const Vector b_hat = a.matvec(x);
    EXPECT_NEAR(b_hat[0], 2.0, 1e-3);
}

}  // namespace

// --- SVD (appended) ------------------------------------------------------------

namespace {

using htd::linalg::singular_values;
using htd::linalg::SvdResult;

TEST(Svd, DiagonalMatrix) {
    const SvdResult r = singular_values(Matrix::diagonal(Vector{3.0, 1.0, 2.0}));
    EXPECT_NEAR(r.values[0], 3.0, 1e-10);
    EXPECT_NEAR(r.values[1], 2.0, 1e-10);
    EXPECT_NEAR(r.values[2], 1.0, 1e-10);
}

TEST(Svd, RequiresTall) {
    EXPECT_THROW((void)singular_values(Matrix(2, 3)), std::invalid_argument);
}

TEST(Svd, MatchesEigenOfGram) {
    // Singular values squared are the eigenvalues of A^T A.
    htd::rng::Rng rng(71);
    Matrix a(12, 4);
    for (std::size_t i = 0; i < 12; ++i)
        for (std::size_t j = 0; j < 4; ++j) a(i, j) = rng.normal();
    const SvdResult svd = singular_values(a);
    const EigenResult eig = symmetric_eigen(a.transposed().matmul(a));
    for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_NEAR(svd.values[k] * svd.values[k], eig.values[k], 1e-8);
    }
}

class SvdProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SvdProperty, ReconstructionAndOrthogonality) {
    const std::size_t n = GetParam();
    const std::size_t m = n + 3;
    htd::rng::Rng rng(81 + n);
    Matrix a(m, n);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
    const SvdResult r = singular_values(a);

    // Descending, non-negative singular values.
    for (std::size_t k = 0; k < n; ++k) {
        EXPECT_GE(r.values[k], 0.0);
        if (k > 0) {
            EXPECT_GE(r.values[k - 1], r.values[k]);
        }
    }
    // U^T U = I and V^T V = I.
    const Matrix utu = r.u.transposed().matmul(r.u);
    const Matrix vtv = r.v.transposed().matmul(r.v);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_NEAR(utu(i, j), i == j ? 1.0 : 0.0, 1e-9);
            EXPECT_NEAR(vtv(i, j), i == j ? 1.0 : 0.0, 1e-9);
        }
    }
    // A = U diag(s) V^T.
    Matrix recon(m, n);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < n; ++k)
                acc += r.u(i, k) * r.values[k] * r.v(j, k);
            recon(i, j) = acc;
        }
    EXPECT_LT((recon - a).max_abs(), 1e-9 * (1.0 + a.max_abs()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SvdProperty, ::testing::Values(1, 2, 4, 6, 10));

TEST(Svd, RankDeficientHasZeroSingularValue) {
    Matrix a(4, 2);
    for (std::size_t i = 0; i < 4; ++i) {
        a(i, 0) = static_cast<double>(i + 1);
        a(i, 1) = 2.0 * static_cast<double>(i + 1);  // multiple of column 0
    }
    const SvdResult r = singular_values(a);
    EXPECT_GT(r.values[0], 1.0);
    EXPECT_NEAR(r.values[1], 0.0, 1e-9);
}

}  // namespace
