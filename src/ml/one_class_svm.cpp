#include "ml/one_class_svm.hpp"

#include "linalg/decompositions.hpp"
#include "obs/span.hpp"
#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace htd::ml {

OneClassSvm::OneClassSvm(Options opts) : opts_(opts) {
    if (!(opts.nu > 0.0 && opts.nu < 1.0)) {
        throw std::invalid_argument("OneClassSvm: nu must lie in (0, 1)");
    }
    if (opts.max_training_samples == 0) {
        throw std::invalid_argument("OneClassSvm: max_training_samples == 0");
    }
    if (opts.tolerance <= 0.0) {
        throw std::invalid_argument("OneClassSvm: tolerance must be positive");
    }
    if (opts.gamma_scale <= 0.0) {
        throw std::invalid_argument("OneClassSvm: gamma_scale must be positive");
    }
}

void OneClassSvm::fit(const linalg::Matrix& data) {
    if (data.rows() == 0 || data.cols() == 0) {
        throw std::invalid_argument("OneClassSvm::fit: empty dataset");
    }
    obs::ScopedSpan span("svm.fit");
    span.attr("samples", static_cast<double>(data.rows()));
    span.attr("dim", static_cast<double>(data.cols()));

    // 1. Uniform subsample when the training set exceeds the cap.
    linalg::Matrix train;
    if (data.rows() > opts_.max_training_samples) {
        rng::Rng rng(opts_.subsample_seed);
        const auto perm = rng.permutation(data.rows());
        train = linalg::Matrix(opts_.max_training_samples, data.cols());
        for (std::size_t i = 0; i < opts_.max_training_samples; ++i) {
            train.set_row(i, data.row(perm[i]));
        }
    } else {
        train = data;
    }

    const std::size_t l = train.rows();
    const double c = 1.0 / (opts_.nu * static_cast<double>(l));
    if (c * static_cast<double>(l) < 1.0 - 1e-12) {
        throw std::invalid_argument("OneClassSvm::fit: nu * n < 1, dual infeasible");
    }

    // 2. Preprocess (standardize or whiten), resolve gamma.
    const std::size_t d = train.cols();
    input_mean_ = train.rows() >= 1 ? stats::column_means(train) : linalg::Vector(d);
    input_transform_ = linalg::Matrix(d, d);
    if (opts_.whiten && train.rows() >= 2) {
        const linalg::Matrix cov = stats::covariance_matrix(train);
        const linalg::EigenResult eig = linalg::symmetric_eigen(cov);
        const double floor_val =
            std::max(eig.values[0], 0.0) * opts_.whiten_floor + 1e-300;
        // W = diag(1/sqrt(max(lambda, floor))) V^T
        for (std::size_t k = 0; k < d; ++k) {
            const double scale = 1.0 / std::sqrt(std::max(eig.values[k], floor_val));
            for (std::size_t col = 0; col < d; ++col) {
                input_transform_(k, col) = scale * eig.vectors(col, k);
            }
        }
    } else {
        linalg::Vector scale(d, 1.0);
        if (train.rows() >= 2) scale = stats::column_stddevs(train);
        for (std::size_t k = 0; k < d; ++k) {
            input_transform_(k, k) = 1.0 / std::max(scale[k], 1e-12);
        }
    }
    linalg::Matrix x(train.rows(), d);
    for (std::size_t r = 0; r < train.rows(); ++r) {
        x.set_row(r, preprocess(train.row(r)));
    }
    gamma_ = opts_.gamma > 0.0 ? opts_.gamma
                               : median_heuristic_gamma(x) * opts_.gamma_scale;
    // 3. Kernel rows on demand: row t of Q is computed the first time it is
    //    read, into the next free slot of one l x l block, and then kept.
    //    Each cell is bit-identical to rbf_kernel(gamma_) on the same pair,
    //    in either order, so the rows equal the dense Gram matrix's. The
    //    block is left uninitialized, so only the slots in use become
    //    resident. Being one allocation the size of the dense Gram, it also
    //    keeps the heap's layout, and so the process's peak memory, the same
    //    from run to run: one allocation per row would leave holes that
    //    later multi-MB buffers fit into or not, by allocation history.
    const auto slots = std::make_unique_for_overwrite<double[]>(l * l);
    constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> slot_of(l, kNoSlot);
    std::size_t rows_computed = 0;
    const auto q_row = [&](std::size_t t) -> const double* {
        if (slot_of[t] == kNoSlot) {
            slot_of[t] = rows_computed++;
            double* row = slots.get() + slot_of[t] * l;
            const auto xt = x.row_span(t);
            for (std::size_t s = 0; s < l; ++s) {
                const auto xs = x.row_span(s);
                double d2 = 0.0;
                for (std::size_t k = 0; k < d; ++k) {
                    const double diff = xt[k] - xs[k];
                    d2 += diff * diff;
                }
                row[s] = std::exp(-gamma_ * d2);
            }
        }
        return slots.get() + slot_of[t] * l;
    };

    // 4. Initialize alpha as in libsvm: the first floor(nu*l) points get the
    //    box maximum, the next point absorbs the remainder so sum == 1.
    std::vector<double> alpha(l, 0.0);
    const auto n_full = static_cast<std::size_t>(opts_.nu * static_cast<double>(l));
    for (std::size_t i = 0; i < std::min(n_full, l); ++i) alpha[i] = c;
    if (n_full < l) {
        alpha[n_full] = 1.0 - static_cast<double>(n_full) * c;
    }

    // Gradient g_i = (Q alpha)_i, accumulated over the nonzero alphas in
    // ascending j so each g_i sums in the same order as a dense mat-vec.
    std::vector<double> grad(l, 0.0);
    for (std::size_t j = 0; j < l; ++j) {
        if (alpha[j] == 0.0) continue;
        const double* qj = q_row(j);
        for (std::size_t i = 0; i < l; ++i) grad[i] += qj[i] * alpha[j];
    }

    // 5. SMO with maximal-violating-pair selection.
    iterations_ = 0;
    for (; iterations_ < opts_.max_iterations; ++iterations_) {
        // i: can increase (alpha_i < C) with the smallest gradient;
        // j: can decrease (alpha_j > 0) with the largest gradient.
        std::size_t bi = l, bj = l;
        double gi = std::numeric_limits<double>::infinity();
        double gj = -std::numeric_limits<double>::infinity();
        for (std::size_t t = 0; t < l; ++t) {
            if (alpha[t] < c - 1e-15 && grad[t] < gi) {
                gi = grad[t];
                bi = t;
            }
            if (alpha[t] > 1e-15 && grad[t] > gj) {
                gj = grad[t];
                bj = t;
            }
        }
        if (bi == l || bj == l || gj - gi < opts_.tolerance) break;

        // Analytic step along e_i - e_j, clipped to the box.
        const double* qi = q_row(bi);
        const double* qj = q_row(bj);
        double eta = qi[bi] + qj[bj] - 2.0 * qi[bj];
        if (eta <= 1e-15) eta = 1e-15;
        double step = (gj - gi) / eta;
        step = std::min(step, c - alpha[bi]);
        step = std::min(step, alpha[bj]);
        if (step <= 0.0) break;  // numerically stuck; KKT is within tolerance

        alpha[bi] += step;
        alpha[bj] -= step;
        for (std::size_t t = 0; t < l; ++t) {
            grad[t] += step * (qi[t] - qj[t]);
        }
    }
    // Every early exit above happens below the cap; reaching it is the
    // one unconverged outcome.
    const bool converged = iterations_ < opts_.max_iterations;

    // 6. rho: average gradient over free support vectors, with a bound-based
    //    fallback when none are free.
    double free_sum = 0.0;
    std::size_t free_count = 0;
    double lower = -std::numeric_limits<double>::infinity();
    double upper = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < l; ++t) {
        if (alpha[t] > 1e-12 && alpha[t] < c - 1e-12) {
            free_sum += grad[t];
            ++free_count;
        } else if (alpha[t] <= 1e-12) {
            upper = std::min(upper, grad[t]);
        } else {
            lower = std::max(lower, grad[t]);
        }
    }
    if (free_count > 0) {
        rho_ = free_sum / static_cast<double>(free_count);
    } else {
        if (!std::isfinite(lower)) lower = upper;
        if (!std::isfinite(upper)) upper = lower;
        rho_ = 0.5 * (lower + upper);
    }

    // 7. Keep only the support vectors.
    support_vectors_ = linalg::Matrix();
    alpha_.clear();
    for (std::size_t t = 0; t < l; ++t) {
        if (alpha[t] > 1e-12) {
            support_vectors_.append_row(x.row(t));
            alpha_.push_back(alpha[t]);
        }
    }

    span.attr("trained_samples", static_cast<double>(l));
    span.attr("support_vectors", static_cast<double>(support_vectors_.rows()));
    span.attr("smo_iterations", static_cast<double>(iterations_));
    span.attr("kernel_rows", static_cast<double>(rows_computed));
    span.attr("converged", converged ? 1.0 : 0.0);
    obs::Registry& registry = obs::Registry::global();
    registry.work_add("work.svm.smo_iterations", static_cast<double>(iterations_));
    registry.work_add("work.svm.gram_cells", static_cast<double>(rows_computed) *
                                                 static_cast<double>(l));
    fitted_ = true;
}

linalg::Vector OneClassSvm::preprocess(const linalg::Vector& x) const {
    if (x.size() != input_mean_.size()) {
        throw std::invalid_argument("OneClassSvm: input dimension mismatch");
    }
    return input_transform_.matvec(x - input_mean_);
}

double OneClassSvm::decision_value(const linalg::Vector& x) const {
    if (!fitted_) throw std::logic_error("OneClassSvm: not fitted");
    const linalg::Vector z = preprocess(x);
    double acc = 0.0;
    for (std::size_t i = 0; i < support_vectors_.rows(); ++i) {
        const auto sv = support_vectors_.row_span(i);
        double d2 = 0.0;
        for (std::size_t c = 0; c < z.size(); ++c) {
            const double d = z[c] - sv[c];
            d2 += d * d;
        }
        acc += alpha_[i] * std::exp(-gamma_ * d2);
    }
    return acc - rho_;
}

bool OneClassSvm::contains(const linalg::Vector& x) const {
    return decision_value(x) >= 0.0;
}

OneClassSvm::State OneClassSvm::export_state() const {
    State state;
    state.opts = opts_;
    state.fitted = fitted_;
    state.input_mean = input_mean_;
    state.input_transform = input_transform_;
    state.support_vectors = support_vectors_;
    state.alpha = alpha_;
    state.rho = rho_;
    state.gamma = gamma_;
    state.iterations = iterations_;
    return state;
}

OneClassSvm OneClassSvm::from_state(State state) {
    OneClassSvm svm(state.opts);  // re-validates the options
    if (state.fitted) {
        if (state.support_vectors.rows() == 0) {
            throw std::invalid_argument(
                "OneClassSvm::from_state: fitted model without support vectors");
        }
        if (state.alpha.size() != state.support_vectors.rows()) {
            throw std::invalid_argument(
                "OneClassSvm::from_state: alpha count " +
                std::to_string(state.alpha.size()) +
                " != support vector count " +
                std::to_string(state.support_vectors.rows()));
        }
        if (state.input_transform.rows() != state.support_vectors.cols() ||
            state.input_transform.cols() != state.input_mean.size()) {
            throw std::invalid_argument(
                "OneClassSvm::from_state: input transform shape " +
                std::to_string(state.input_transform.rows()) + "x" +
                std::to_string(state.input_transform.cols()) +
                " disagrees with mean size " +
                std::to_string(state.input_mean.size()) +
                " / support vector width " +
                std::to_string(state.support_vectors.cols()));
        }
        if (!std::isfinite(state.rho) || !std::isfinite(state.gamma) ||
            state.gamma <= 0.0) {
            throw std::invalid_argument(
                "OneClassSvm::from_state: non-finite rho or non-positive gamma");
        }
        for (const double a : state.alpha) {
            if (!std::isfinite(a)) {
                throw std::invalid_argument(
                    "OneClassSvm::from_state: non-finite alpha coefficient");
            }
        }
    }
    svm.fitted_ = state.fitted;
    svm.input_mean_ = std::move(state.input_mean);
    svm.input_transform_ = std::move(state.input_transform);
    svm.support_vectors_ = std::move(state.support_vectors);
    svm.alpha_ = std::move(state.alpha);
    svm.rho_ = state.rho;
    svm.gamma_ = state.gamma;
    svm.iterations_ = state.iterations;
    return svm;
}

linalg::Vector OneClassSvm::decision_values(const linalg::Matrix& data) const {
    linalg::Vector out(data.rows());
    for (std::size_t r = 0; r < data.rows(); ++r) out[r] = decision_value(data.row(r));
    // One RBF evaluation per (row, support vector) pair.
    obs::Registry::global().work_add(
        "work.svm.kernel_evals", static_cast<double>(data.rows()) *
                                     static_cast<double>(support_vectors_.rows()));
    return out;
}

}  // namespace htd::ml
