#include "stats/kernels.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace htd::stats {

double unit_ball_volume(std::size_t dim) {
    if (dim == 0) throw std::invalid_argument("unit_ball_volume: dim == 0");
    const double d = static_cast<double>(dim);
    return 2.0 * std::pow(std::numbers::pi, d / 2.0) / (d * std::tgamma(d / 2.0));
}

// --- Epanechnikov ----------------------------------------------------------

EpanechnikovKernel::EpanechnikovKernel(std::size_t dim) : dim_(dim) {
    if (dim == 0) throw std::invalid_argument("EpanechnikovKernel: dim == 0");
    norm_ = 0.5 * (static_cast<double>(dim) + 2.0) / unit_ball_volume(dim);
}

double EpanechnikovKernel::density(std::span<const double> t) const {
    if (t.size() != dim_) throw std::invalid_argument("EpanechnikovKernel::density: dim mismatch");
    double tt = 0.0;
    for (double v : t) tt += v * v;
    if (tt >= 1.0) return 0.0;
    return norm_ * (1.0 - tt);
}

void EpanechnikovKernel::sample(rng::Rng& rng, std::span<double> out) const {
    if (out.size() != dim_) throw std::invalid_argument("EpanechnikovKernel::sample: dim mismatch");
    // The first d coordinates of a uniform point on S^{d+3}: d+4 normals,
    // of which the last four only add to the norm (see the header).
    double nrm2 = 0.0;
    while (nrm2 == 0.0) {
        for (double& v : out) {
            v = rng.normal();
            nrm2 += v * v;
        }
        for (int k = 0; k < 4; ++k) {
            const double z = rng.normal();
            nrm2 += z * z;
        }
    }
    const double inv = 1.0 / std::sqrt(nrm2);
    for (double& v : out) v *= inv;
}

// --- Gaussian ----------------------------------------------------------------

GaussianKernel::GaussianKernel(std::size_t dim) : dim_(dim) {
    if (dim == 0) throw std::invalid_argument("GaussianKernel: dim == 0");
    log_norm_ = -0.5 * static_cast<double>(dim) * std::log(2.0 * std::numbers::pi);
}

double GaussianKernel::density(std::span<const double> t) const {
    if (t.size() != dim_) throw std::invalid_argument("GaussianKernel::density: dim mismatch");
    double tt = 0.0;
    for (double v : t) tt += v * v;
    return std::exp(log_norm_ - 0.5 * tt);
}

void GaussianKernel::sample(rng::Rng& rng, std::span<double> out) const {
    if (out.size() != dim_) throw std::invalid_argument("GaussianKernel::sample: dim mismatch");
    for (double& v : out) v = rng.normal();
}

}  // namespace htd::stats
