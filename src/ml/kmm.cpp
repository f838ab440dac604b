#include "ml/kmm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/stable_sum.hpp"
#include "obs/span.hpp"
#include "stats/descriptive.hpp"

namespace htd::ml {

double effective_sample_size(const linalg::Vector& weights) noexcept {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        sum += weights[i];
        sum_sq += weights[i] * weights[i];
    }
    return sum_sq > 0.0 ? sum * sum / sum_sq : 0.0;
}

linalg::Matrix weighted_resample(const linalg::Matrix& data,
                                 const linalg::Vector& weights, std::size_t n,
                                 rng::Rng& rng) {
    if (weights.size() != data.rows()) {
        throw std::invalid_argument("weighted_resample: size mismatch");
    }
    if (n == 0) throw std::invalid_argument("weighted_resample: n == 0");
    linalg::Matrix out(n, data.cols());
    const std::span<const double> w(weights.data(), weights.size());
    for (std::size_t i = 0; i < n; ++i) {
        out.set_row(i, data.row(rng.weighted_index(w)));
    }
    return out;
}

KernelMeanMatching::KernelMeanMatching(Options opts) : opts_(opts) {
    if (opts.weight_bound <= 0.0) {
        throw std::invalid_argument("KernelMeanMatching: weight_bound <= 0");
    }
    if (opts.max_iterations == 0) {
        throw std::invalid_argument("KernelMeanMatching: max_iterations == 0");
    }
}

linalg::Vector project_box_sum(const linalg::Vector& v, double hi, double lo_sum,
                               double hi_sum) {
    if (hi <= 0.0) throw std::invalid_argument("project_box_sum: hi <= 0");
    if (lo_sum > hi_sum) throw std::invalid_argument("project_box_sum: lo_sum > hi_sum");
    const double n_hi = hi * static_cast<double>(v.size());
    if (lo_sum > n_hi || hi_sum < 0.0) {
        throw std::invalid_argument("project_box_sum: empty feasible set");
    }

    auto clipped_sum = [&](double lambda) {
        double s = 0.0;
        for (std::size_t i = 0; i < v.size(); ++i) {
            s += std::clamp(v[i] + lambda, 0.0, hi);
        }
        return s;
    };

    linalg::Vector out(v.size());
    const double s0 = clipped_sum(0.0);
    double lambda = 0.0;
    if (s0 < lo_sum || s0 > hi_sum) {
        // Bisection for the shift that lands the clipped sum on the nearest
        // band edge; the clipped sum is monotone nondecreasing in lambda.
        const double target = s0 < lo_sum ? lo_sum : hi_sum;
        double lo = -hi - v.max();
        double hi_l = hi - v.min();
        // Widen until bracketing (robust against extreme inputs).
        for (int k = 0; k < 64 && clipped_sum(lo) > target; ++k) lo *= 2.0;
        for (int k = 0; k < 64 && clipped_sum(hi_l) < target; ++k) hi_l *= 2.0;
        for (int it = 0; it < 200; ++it) {
            lambda = 0.5 * (lo + hi_l);
            if (clipped_sum(lambda) < target) {
                lo = lambda;
            } else {
                hi_l = lambda;
            }
        }
        lambda = 0.5 * (lo + hi_l);
    }
    for (std::size_t i = 0; i < v.size(); ++i) {
        out[i] = std::clamp(v[i] + lambda, 0.0, hi);
    }
    return out;
}

double KernelMeanMatching::objective(const linalg::Matrix& k, const linalg::Vector& kappa,
                                     const linalg::Vector& beta) {
    const linalg::Vector kb = k.matvec(beta);
    return 0.5 * linalg::dot(beta, kb) - linalg::dot(kappa, beta);
}

linalg::Vector KernelMeanMatching::solve(const linalg::Matrix& train,
                                         const linalg::Matrix& test) const {
    if (train.rows() == 0 || test.rows() == 0) {
        throw std::invalid_argument("KernelMeanMatching::solve: empty input");
    }
    if (train.cols() != test.cols()) {
        throw std::invalid_argument("KernelMeanMatching::solve: column mismatch");
    }

    const std::size_t ntr = train.rows();
    const std::size_t nte = test.rows();
    obs::ScopedSpan span("kmm.solve");
    span.attr("train_samples", static_cast<double>(ntr));
    span.attr("test_samples", static_cast<double>(nte));

    double gamma = opts_.gamma;
    if (gamma <= 0.0) {
        // Median heuristic on the pooled samples so one width covers both clouds.
        linalg::Matrix pooled = train;
        for (std::size_t r = 0; r < nte; ++r) pooled.append_row(test.row(r));
        gamma = median_heuristic_gamma(pooled);
    }
    const KernelFn kernel = rbf_kernel(gamma);

    const linalg::Matrix k = gram_matrix(kernel, train);
    // Gram build is ntr² kernel evaluations, kappa another ntr×nte.
    obs::Registry::global().work_add(
        "work.kmm.gram_cells",
        static_cast<double>(ntr) * static_cast<double>(ntr) +
            static_cast<double>(ntr) * static_cast<double>(nte));
    linalg::Vector kappa(ntr);
    // Each kappa[i] is an independent nte-term kernel sum; the compensated
    // accumulator keeps each row within ~1 ulp of its exact sum.
    for (std::size_t i = 0; i < ntr; ++i) {
        core::StableAccumulator acc;
        for (std::size_t j = 0; j < nte; ++j) {
            acc.add(kernel(train.row_span(i), test.row_span(j)));
        }
        kappa[i] = acc.value() * static_cast<double>(ntr) / static_cast<double>(nte);
    }

    double eps = opts_.epsilon;
    if (eps <= 0.0) {
        const double root = std::sqrt(static_cast<double>(ntr));
        eps = (root - 1.0) / root;
    }
    const double lo_sum = static_cast<double>(ntr) * (1.0 - eps);
    const double hi_sum = static_cast<double>(ntr) * (1.0 + eps);

    // Lipschitz constant of the gradient via the Gershgorin row-sum bound.
    double lipschitz = 0.0;
    for (std::size_t i = 0; i < ntr; ++i) {
        double row = 0.0;
        for (std::size_t j = 0; j < ntr; ++j) row += std::abs(k(i, j));
        lipschitz = std::max(lipschitz, row);
    }
    const double step = 1.0 / std::max(lipschitz, 1e-12);

    linalg::Vector beta(ntr, 1.0);
    beta = project_box_sum(beta, opts_.weight_bound, lo_sum, hi_sum);
    std::size_t pgd_iterations = 0;
    bool converged = false;
    for (std::size_t it = 0; it < opts_.max_iterations; ++it) {
        ++pgd_iterations;
        const linalg::Vector grad = k.matvec(beta) - kappa;
        linalg::Vector next(ntr);
        for (std::size_t i = 0; i < ntr; ++i) next[i] = beta[i] - step * grad[i];
        next = project_box_sum(next, opts_.weight_bound, lo_sum, hi_sum);
        double delta = 0.0;
        for (std::size_t i = 0; i < ntr; ++i) {
            delta = std::max(delta, std::abs(next[i] - beta[i]));
        }
        beta = std::move(next);
        if (delta < opts_.tolerance) {
            converged = true;
            break;
        }
    }
    span.attr("pgd_iterations", static_cast<double>(pgd_iterations));
    // 0 when PGD stopped at max_iterations without meeting the tolerance.
    span.attr("converged", converged ? 1.0 : 0.0);
    // Each PGD step is dominated by the ntr² Gram matvec.
    obs::Registry::global().work_add("work.kmm.pgd_matvec_cells",
                                     static_cast<double>(pgd_iterations) *
                                         static_cast<double>(ntr) *
                                         static_cast<double>(ntr));
    return beta;
}

// --- KernelMeanShiftCalibrator ------------------------------------------------

KernelMeanShiftCalibrator::Result KernelMeanShiftCalibrator::calibrate(
    const linalg::Matrix& train, const linalg::Matrix& test) const {
    if (train.rows() == 0 || test.rows() == 0) {
        throw std::invalid_argument("KernelMeanShiftCalibrator: empty input");
    }
    if (train.cols() != test.cols()) {
        throw std::invalid_argument("KernelMeanShiftCalibrator: column mismatch");
    }
    obs::ScopedSpan span("kmm.calibrate");
    span.attr("train_samples", static_cast<double>(train.rows()));
    span.attr("test_samples", static_cast<double>(test.rows()));

    const std::size_t d = train.cols();
    const linalg::Vector test_mean = stats::column_means(test);

    // Convergence scale: RMS column spread of the test population (falls back
    // to the train spread, then to 1, for degenerate populations).
    double scale = 0.0;
    if (test.rows() >= 2) {
        const linalg::Vector s = stats::column_stddevs(test);
        for (std::size_t c = 0; c < d; ++c) scale += s[c] * s[c];
        scale = std::sqrt(scale / static_cast<double>(d));
    }
    if (scale <= 0.0 && train.rows() >= 2) {
        const linalg::Vector s = stats::column_stddevs(train);
        for (std::size_t c = 0; c < d; ++c) scale += s[c] * s[c];
        scale = std::sqrt(scale / static_cast<double>(d));
    }
    if (scale <= 0.0) scale = 1.0;

    Result result;
    result.calibrated = train;

    // Step 1: close the bulk of the gap with the plain mean difference.
    result.total_shift = test_mean - stats::column_means(train);

    // Step 2: kernel mean shift. The RKHS distance between the translated
    // training cloud and the test cloud depends on the translation t only
    // through the cross term sum_ij k(x_i + t, y_j) (the train-train Gram is
    // translation invariant), so minimizing the MMD over translations is a
    // soft-assignment fixed point: t <- weighted mean of (y_j - x_i) with
    // RBF correspondence weights evaluated at the current t.
    const std::size_t ntr = train.rows();
    const std::size_t nte = test.rows();
    double gamma = opts_.kmm.gamma;
    if (gamma <= 0.0) {
        linalg::Matrix pooled = test;  // width set by the target cloud's scale
        gamma = pooled.rows() >= 2 ? median_heuristic_gamma(pooled)
                                   : 1.0 / (scale * scale);
    }

    for (result.iterations = 0; result.iterations < opts_.max_shift_iterations;
         ++result.iterations) {
        linalg::Vector delta(d);
        double wsum = 0.0;
        for (std::size_t i = 0; i < ntr; ++i) {
            const auto x = train.row_span(i);
            for (std::size_t j = 0; j < nte; ++j) {
                const auto y = test.row_span(j);
                double d2 = 0.0;
                for (std::size_t c = 0; c < d; ++c) {
                    const double diff = x[c] + result.total_shift[c] - y[c];
                    d2 += diff * diff;
                }
                const double w = std::exp(-gamma * d2);
                wsum += w;
                for (std::size_t c = 0; c < d; ++c) {
                    delta[c] += w * (y[c] - x[c] - result.total_shift[c]);
                }
            }
        }
        if (wsum <= 1e-300) break;  // no effective overlap; keep the mean shift
        delta /= wsum;
        result.total_shift += delta;
        if (delta.norm() < opts_.shift_tolerance * scale) {
            ++result.iterations;
            break;
        }
    }

    for (std::size_t r = 0; r < ntr; ++r) {
        auto row = result.calibrated.row_span(r);
        for (std::size_t c = 0; c < d; ++c) row[c] += result.total_shift[c];
    }

    // Final KMM weights on the calibrated cloud (Section 2.4's beta), kept
    // for diagnostics and downstream weighting.
    const KernelMeanMatching kmm(opts_.kmm);
    result.weights = kmm.solve(result.calibrated, test);

    const double ess = effective_sample_size(result.weights);
    span.attr("shift_iterations", static_cast<double>(result.iterations));
    span.attr("total_shift_norm", result.total_shift.norm());
    span.attr("effective_sample_size", ess);
    obs::Registry& registry = obs::Registry::global();
    // The fixed-point loop touches every (train, test) pair once per
    // iteration — the kmm.calibrate hot loop.
    registry.work_add("work.kmm.shift_pair_evals",
                      static_cast<double>(result.iterations) *
                          static_cast<double>(ntr) * static_cast<double>(nte));
    return result;
}

}  // namespace htd::ml
