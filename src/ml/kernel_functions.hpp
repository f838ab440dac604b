#pragma once
/// \file kernel_functions.hpp
/// Positive-definite kernels for the kernel methods in this library (1-class
/// SVM, KMM). Kernels operate on raw row spans so the Gram-matrix loops stay
/// allocation-free.

#include <functional>
#include <span>

#include "linalg/matrix.hpp"

namespace htd::ml {

/// A positive-definite kernel function k(x, y) on equal-length spans.
using KernelFn = std::function<double(std::span<const double>, std::span<const double>)>;

/// Gaussian RBF kernel k(x, y) = exp(-gamma ||x - y||^2).
/// Throws std::invalid_argument when gamma <= 0.
[[nodiscard]] KernelFn rbf_kernel(double gamma);

/// Linear kernel k(x, y) = x . y.
[[nodiscard]] KernelFn linear_kernel();

/// Polynomial kernel k(x, y) = (scale * x.y + offset)^degree.
/// Throws std::invalid_argument when degree == 0.
[[nodiscard]] KernelFn polynomial_kernel(unsigned degree, double scale = 1.0,
                                         double offset = 1.0);

/// Median heuristic for the RBF width: gamma = 1 / (2 median^2) where the
/// median is over pairwise Euclidean distances of the rows of `data` (when
/// there are more than `max_pairs` pairs, every stride-th pair in row-major
/// upper-triangle order, `max_pairs` of them, keeps it cheap). Returns a
/// fallback of 1/dim when the median distance is zero. Throws on datasets
/// with fewer than 2 rows.
[[nodiscard]] double median_heuristic_gamma(const linalg::Matrix& data,
                                            std::size_t max_pairs = 100000);

/// Dense Gram matrix K_ij = k(a_i, b_j) over the rows of `a` and `b`.
[[nodiscard]] linalg::Matrix gram_matrix(const KernelFn& kernel,
                                         const linalg::Matrix& a,
                                         const linalg::Matrix& b);

/// Symmetric Gram matrix K_ij = k(x_i, x_j) over the rows of `x` (computes
/// only the upper triangle and mirrors it).
[[nodiscard]] linalg::Matrix gram_matrix(const KernelFn& kernel,
                                         const linalg::Matrix& x);

}  // namespace htd::ml
