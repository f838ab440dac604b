#include "stats/kde.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/stable_sum.hpp"
#include "obs/span.hpp"
#include "stats/descriptive.hpp"

namespace htd::stats {

namespace {

std::unique_ptr<SmoothingKernel> make_kernel(KernelType type, std::size_t dim) {
    switch (type) {
        case KernelType::kEpanechnikov:
            return std::make_unique<EpanechnikovKernel>(dim);
        case KernelType::kGaussian:
            return std::make_unique<GaussianKernel>(dim);
    }
    throw std::invalid_argument("make_kernel: unknown kernel type");
}

/// EpanechnikovKernel::density at t_c = scale(z_c - row_c), inlined for the
/// density hot loops: the same sum of squares in the same order and the
/// same cut, so it equals the kernel call bit for bit, without a
/// displacement vector or a virtual call per observation.
template <typename Scale>
double epanechnikov_at(std::span<const double> z, std::span<const double> row,
                       double norm, Scale scale) {
    double tt = 0.0;
    for (std::size_t c = 0; c < z.size(); ++c) {
        const double t = scale(z[c] - row[c]);
        tt += t * t;
    }
    return tt >= 1.0 ? 0.0 : norm * (1.0 - tt);
}

}  // namespace

double silverman_bandwidth(std::size_t n_samples, std::size_t dim, KernelType kernel) {
    if (n_samples == 0) throw std::invalid_argument("silverman_bandwidth: n_samples == 0");
    if (dim == 0) throw std::invalid_argument("silverman_bandwidth: dim == 0");
    const double d = static_cast<double>(dim);
    const double n = static_cast<double>(n_samples);
    double a = 1.0;
    switch (kernel) {
        case KernelType::kEpanechnikov: {
            // Silverman (1986), Eq. 4.15 adapted: A(K) for the multivariate
            // Epanechnikov kernel.
            const double cd = unit_ball_volume(dim);
            a = std::pow(8.0 / cd * (d + 4.0) *
                             std::pow(2.0 * std::sqrt(std::numbers::pi), d),
                         1.0 / (d + 4.0));
            break;
        }
        case KernelType::kGaussian:
            a = std::pow(4.0 / (d + 2.0), 1.0 / (d + 4.0));
            break;
    }
    return a * std::pow(n, -1.0 / (d + 4.0));
}

// --- Kde -------------------------------------------------------------------

Kde::Kde(const linalg::Matrix& data, double bandwidth, KernelType kernel) {
    if (data.rows() == 0 || data.cols() == 0) {
        throw std::invalid_argument("Kde: empty dataset");
    }
    const std::size_t d = data.cols();
    col_mean_ = column_means(data);
    if (data.rows() >= 2) {
        col_scale_ = column_stddevs(data);
    } else {
        col_scale_ = linalg::Vector(d, 1.0);
    }
    jacobian_ = 1.0;
    for (std::size_t c = 0; c < d; ++c) {
        // Floor the scale so constant columns do not produce divide-by-zero;
        // they simply stay (almost) constant in the synthetic population.
        if (col_scale_[c] < 1e-12) col_scale_[c] = 1e-12;
        jacobian_ *= col_scale_[c];
    }

    std_data_ = data;
    for (std::size_t r = 0; r < std_data_.rows(); ++r) {
        auto row = std_data_.row_span(r);
        for (std::size_t c = 0; c < d; ++c) row[c] = (row[c] - col_mean_[c]) / col_scale_[c];
    }

    h_ = bandwidth > 0.0 ? bandwidth : silverman_bandwidth(data.rows(), d, kernel);
    kernel_type_ = kernel;
    kernel_ = make_kernel(kernel, d);
}

Kde::State Kde::export_state() const {
    State state;
    state.std_data = std_data_;
    state.col_mean = col_mean_;
    state.col_scale = col_scale_;
    state.h = h_;
    state.jacobian = jacobian_;
    state.kernel = kernel_type_;
    return state;
}

Kde Kde::from_state(State state) {
    const std::size_t d = state.std_data.cols();
    if (state.std_data.rows() == 0 || d == 0) {
        throw std::invalid_argument("Kde::from_state: empty observations");
    }
    if (state.col_mean.size() != d || state.col_scale.size() != d) {
        throw std::invalid_argument(
            "Kde::from_state: column mean/scale size disagrees with the "
            "observation width");
    }
    if (!(state.h > 0.0) || !std::isfinite(state.h) || !(state.jacobian > 0.0) ||
        !std::isfinite(state.jacobian)) {
        throw std::invalid_argument(
            "Kde::from_state: non-positive or non-finite bandwidth/jacobian");
    }
    for (std::size_t c = 0; c < d; ++c) {
        if (!std::isfinite(state.col_mean[c]) || !(state.col_scale[c] > 0.0) ||
            !std::isfinite(state.col_scale[c])) {
            throw std::invalid_argument(
                "Kde::from_state: non-finite column statistics");
        }
    }
    Kde kde;
    kde.kernel_ = make_kernel(state.kernel, d);  // throws on an unknown kernel
    kde.kernel_type_ = state.kernel;
    kde.std_data_ = std::move(state.std_data);
    kde.col_mean_ = std::move(state.col_mean);
    kde.col_scale_ = std::move(state.col_scale);
    kde.h_ = state.h;
    kde.jacobian_ = state.jacobian;
    return kde;
}

double Kde::epanechnikov_norm() const {
    return static_cast<const EpanechnikovKernel&>(*kernel_).normalizer();
}

double Kde::standardized_density(std::span<const double> z) const {
    const std::size_t m = std_data_.rows();
    const std::size_t d = std_data_.cols();
    const double inv_h = 1.0 / h_;
    core::StableAccumulator acc;
    if (kernel_type_ == KernelType::kEpanechnikov) {
        const double norm = epanechnikov_norm();
        const auto scale = [inv_h](double v) { return v * inv_h; };
        for (std::size_t i = 0; i < m; ++i) {
            acc.add(epanechnikov_at(z, std_data_.row_span(i), norm, scale));
        }
    } else {
        std::vector<double> t(d);
        for (std::size_t i = 0; i < m; ++i) {
            const auto row = std_data_.row_span(i);
            for (std::size_t c = 0; c < d; ++c) t[c] = (z[c] - row[c]) * inv_h;
            acc.add(kernel_->density(t));
        }
    }
    return acc.value() /
           (static_cast<double>(m) * std::pow(h_, static_cast<double>(d)));
}

double Kde::density(const linalg::Vector& x) const {
    if (x.size() != dim()) throw std::invalid_argument("Kde::density: dimension mismatch");
    std::vector<double> z(dim());
    for (std::size_t c = 0; c < dim(); ++c) z[c] = (x[c] - col_mean_[c]) / col_scale_[c];
    return standardized_density(z) / jacobian_;
}

void Kde::draw(rng::Rng& rng, std::span<const double> local_h, std::span<double> disp,
               std::span<double> out) const {
    const std::size_t i = rng.uniform_index(observation_count());
    kernel_->sample(rng, disp);
    const double hi = local_h.empty() ? h_ : local_h[i];
    const auto row = std_data_.row_span(i);
    for (std::size_t c = 0; c < out.size(); ++c) {
        out[c] = (row[c] + hi * disp[c]) * col_scale_[c] + col_mean_[c];
    }
}

linalg::Matrix Kde::draw_n(rng::Rng& rng, std::size_t n,
                           std::span<const double> local_h) const {
    linalg::Matrix out(n, dim());
    std::vector<double> disp(dim());
    for (std::size_t k = 0; k < n; ++k) draw(rng, local_h, disp, out.row_span(k));
    obs::Registry::global().work_add("work.kde.samples_drawn", static_cast<double>(n));
    return out;
}

linalg::Vector Kde::sample(rng::Rng& rng) const {
    std::vector<double> disp(dim());
    linalg::Vector out(dim());
    draw(rng, {}, disp, out.span());
    return out;
}

linalg::Matrix Kde::sample_n(rng::Rng& rng, std::size_t n) const {
    obs::ScopedSpan span("kde.sample_n");
    span.attr("samples", static_cast<double>(n));
    span.attr("dim", static_cast<double>(dim()));
    return draw_n(rng, n, {});
}

// --- AdaptiveKde -------------------------------------------------------------

AdaptiveKde::AdaptiveKde(const linalg::Matrix& data, double alpha, double bandwidth,
                         KernelType kernel, double max_lambda)
    : pilot_(data, bandwidth, kernel), alpha_(alpha) {
    if (alpha < 0.0 || alpha > 1.0) {
        throw std::invalid_argument("AdaptiveKde: alpha outside [0, 1]");
    }
    if (max_lambda < 1.0) {
        throw std::invalid_argument("AdaptiveKde: max_lambda < 1");
    }
    const std::size_t m = pilot_.observation_count();

    obs::ScopedSpan span("kde.adaptive_build");
    span.attr("observations", static_cast<double>(m));
    span.attr("dim", static_cast<double>(pilot_.dim()));
    // The pilot-density pass evaluates the kernel once per (i, j) pair —
    // the m² term that makes AdaptiveKde construction quadratic.
    obs::Registry::global().work_add("work.kde.kernel_evals",
                                     static_cast<double>(m) * static_cast<double>(m));

    // Pilot density at each observation (standardized space; the Jacobian is
    // a constant and cancels inside lambda_i).
    std::vector<double> pilot_density(m);
    core::StableAccumulator log_sum;
    for (std::size_t i = 0; i < m; ++i) {
        double f = pilot_.standardized_density(pilot_.std_data_.row_span(i));
        // The kernel always covers its own center, so f > 0; clamp anyway to
        // keep the log finite under extreme bandwidths.
        f = std::max(f, 1e-300);
        pilot_density[i] = f;
        log_sum.add(std::log(f));
    }
    g_ = std::exp(log_sum.value() / static_cast<double>(m));  // Eq. (9)

    lambda_.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
        lambda_[i] = std::min(std::pow(pilot_density[i] / g_, -alpha_),
                              max_lambda);  // Eq. (8), clamped
    }
    derive_bandwidths();
}

void AdaptiveKde::derive_bandwidths() {
    const double h = pilot_.bandwidth();
    const auto d = static_cast<double>(dim());
    local_h_.resize(lambda_.size());
    local_h_pow_d_.resize(lambda_.size());
    for (std::size_t i = 0; i < lambda_.size(); ++i) {
        local_h_[i] = h * lambda_[i];
        local_h_pow_d_[i] = std::pow(local_h_[i], d);
    }
}

AdaptiveKde::State AdaptiveKde::export_state() const {
    State state;
    state.pilot = pilot_.export_state();
    state.alpha = alpha_;
    state.g = g_;
    state.lambda = lambda_;
    return state;
}

AdaptiveKde AdaptiveKde::from_state(State state) {
    if (state.alpha < 0.0 || state.alpha > 1.0) {
        throw std::invalid_argument("AdaptiveKde::from_state: alpha outside [0, 1]");
    }
    if (!(state.g > 0.0) || !std::isfinite(state.g)) {
        throw std::invalid_argument(
            "AdaptiveKde::from_state: non-positive pilot geometric mean");
    }
    if (state.lambda.size() != state.pilot.std_data.rows()) {
        throw std::invalid_argument(
            "AdaptiveKde::from_state: " + std::to_string(state.lambda.size()) +
            " bandwidth factors for " +
            std::to_string(state.pilot.std_data.rows()) + " observations");
    }
    for (const double l : state.lambda) {
        if (!std::isfinite(l) || l < 1e-12) {
            throw std::invalid_argument(
                "AdaptiveKde::from_state: non-finite or degenerate local "
                "bandwidth factor");
        }
    }
    AdaptiveKde kde;
    kde.pilot_ = Kde::from_state(std::move(state.pilot));
    kde.alpha_ = state.alpha;
    kde.g_ = state.g;
    kde.lambda_ = std::move(state.lambda);
    kde.derive_bandwidths();
    return kde;
}

double AdaptiveKde::local_bandwidth_factor(std::size_t i) const {
    if (i >= lambda_.size()) throw std::out_of_range("AdaptiveKde::local_bandwidth_factor");
    return lambda_[i];
}

double AdaptiveKde::density(const linalg::Vector& x) const {
    const std::size_t d = dim();
    if (x.size() != d) throw std::invalid_argument("AdaptiveKde::density: dimension mismatch");
    std::vector<double> z(d);
    for (std::size_t c = 0; c < d; ++c) {
        z[c] = (x[c] - pilot_.col_mean_[c]) / pilot_.col_scale_[c];
    }

    const std::size_t m = observation_count();
    core::StableAccumulator acc;
    if (pilot_.kernel_type_ == KernelType::kEpanechnikov) {
        const double norm = pilot_.epanechnikov_norm();
        for (std::size_t i = 0; i < m; ++i) {
            const double hi = local_h_[i];
            const auto scale = [hi](double v) { return v / hi; };
            acc.add(epanechnikov_at(z, pilot_.std_data_.row_span(i), norm, scale) /
                    local_h_pow_d_[i]);
        }
    } else {
        std::vector<double> t(d);
        for (std::size_t i = 0; i < m; ++i) {
            const auto row = pilot_.std_data_.row_span(i);
            const double hi = local_h_[i];
            for (std::size_t c = 0; c < d; ++c) t[c] = (z[c] - row[c]) / hi;
            acc.add(pilot_.kernel_->density(t) / local_h_pow_d_[i]);
        }
    }
    return acc.value() / static_cast<double>(m) / pilot_.jacobian_;  // Eq. (7)
}

linalg::Vector AdaptiveKde::sample(rng::Rng& rng) const {
    std::vector<double> disp(dim());
    linalg::Vector out(dim());
    pilot_.draw(rng, local_h_, disp, out.span());
    return out;
}

linalg::Matrix AdaptiveKde::sample_n(rng::Rng& rng, std::size_t n) const {
    obs::ScopedSpan span("kde.adaptive_sample_n");
    span.attr("samples", static_cast<double>(n));
    span.attr("dim", static_cast<double>(dim()));
    span.attr("observations", static_cast<double>(observation_count()));
    return pilot_.draw_n(rng, n, local_h_);
}

}  // namespace htd::stats
