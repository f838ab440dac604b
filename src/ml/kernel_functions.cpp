#include "ml/kernel_functions.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "stats/descriptive.hpp"

namespace htd::ml {

namespace {

double squared_dist(std::span<const double> x, std::span<const double> y) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double d = x[i] - y[i];
        acc += d * d;
    }
    return acc;
}

}  // namespace

KernelFn rbf_kernel(double gamma) {
    if (gamma <= 0.0) throw std::invalid_argument("rbf_kernel: gamma <= 0");
    return [gamma](std::span<const double> x, std::span<const double> y) {
        if (x.size() != y.size()) throw std::invalid_argument("rbf_kernel: dim mismatch");
        return std::exp(-gamma * squared_dist(x, y));
    };
}

KernelFn linear_kernel() {
    return [](std::span<const double> x, std::span<const double> y) {
        if (x.size() != y.size()) throw std::invalid_argument("linear_kernel: dim mismatch");
        double acc = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
        return acc;
    };
}

KernelFn polynomial_kernel(unsigned degree, double scale, double offset) {
    if (degree == 0) throw std::invalid_argument("polynomial_kernel: degree == 0");
    return [degree, scale, offset](std::span<const double> x, std::span<const double> y) {
        if (x.size() != y.size()) {
            throw std::invalid_argument("polynomial_kernel: dim mismatch");
        }
        double acc = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
        return std::pow(scale * acc + offset, static_cast<double>(degree));
    };
}

double median_heuristic_gamma(const linalg::Matrix& data, std::size_t max_pairs) {
    const std::size_t n = data.rows();
    if (n < 2) throw std::invalid_argument("median_heuristic_gamma: need >= 2 rows");

    std::vector<double> dists;
    const std::size_t total_pairs = n * (n - 1) / 2;
    if (total_pairs <= max_pairs) {
        dists.reserve(total_pairs);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i + 1; j < n; ++j)
                dists.push_back(std::sqrt(squared_dist(data.row_span(i), data.row_span(j))));
    } else {
        // Deterministic stride subsample over the pair index space: the
        // pairs at flat upper-triangle indices 0, stride, 2*stride, ...
        dists.reserve(max_pairs);
        const std::size_t stride = std::max<std::size_t>(1, total_pairs / max_pairs);
        std::size_t i = 0;
        std::size_t row_start = 0;  // flat index of pair (i, i + 1)
        for (std::size_t k = 0; k < max_pairs; ++k) {
            const std::size_t flat = k * stride;
            while (flat >= row_start + (n - 1 - i)) {
                row_start += n - 1 - i;
                ++i;
            }
            const std::size_t j = i + 1 + (flat - row_start);
            dists.push_back(std::sqrt(squared_dist(data.row_span(i), data.row_span(j))));
        }
    }
    const double med = stats::median(dists);
    if (med <= 0.0) return 1.0 / static_cast<double>(data.cols());
    return 1.0 / (2.0 * med * med);
}

linalg::Matrix gram_matrix(const KernelFn& kernel, const linalg::Matrix& a,
                           const linalg::Matrix& b) {
    if (a.cols() != b.cols()) throw std::invalid_argument("gram_matrix: dim mismatch");
    linalg::Matrix k(a.rows(), b.rows());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.rows(); ++j)
            k(i, j) = kernel(a.row_span(i), b.row_span(j));
    return k;
}

linalg::Matrix gram_matrix(const KernelFn& kernel, const linalg::Matrix& x) {
    linalg::Matrix k(x.rows(), x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) {
        for (std::size_t j = i; j < x.rows(); ++j) {
            const double v = kernel(x.row_span(i), x.row_span(j));
            k(i, j) = v;
            k(j, i) = v;
        }
    }
    return k;
}

}  // namespace htd::ml
