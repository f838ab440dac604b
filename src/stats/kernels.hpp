#pragma once
/// \file kernels.hpp
/// Smoothing kernels for density estimation. The paper (Section 2.5, Eq. 6)
/// uses the radially symmetric multivariate Epanechnikov kernel
///
///   Ke(t) = 1/2 c_d^{-1} (d+2) (1 - t^T t)   for  t^T t < 1,   0 otherwise
///
/// where c_d = 2 pi^{d/2} / (d Gamma(d/2)) is the volume of the unit
/// d-dimensional sphere. A Gaussian kernel is provided for comparison and
/// ablation studies.

#include <span>

#include "rng/rng.hpp"

namespace htd::stats {

/// Volume of the unit ball in `dim` dimensions, c_d = 2 pi^{d/2}/(d Gamma(d/2)).
/// Throws std::invalid_argument when dim == 0.
[[nodiscard]] double unit_ball_volume(std::size_t dim);

/// Smoothing kernel interface: a normalized density on R^dim evaluated at a
/// displacement `t` (already divided by the bandwidth), plus exact sampling.
class SmoothingKernel {
public:
    virtual ~SmoothingKernel() = default;

    /// Kernel density at displacement t (must have size dim()).
    [[nodiscard]] virtual double density(std::span<const double> t) const = 0;

    /// Draw a displacement from the kernel into `out` (size dim()).
    virtual void sample(rng::Rng& rng, std::span<double> out) const = 0;

    /// Dimensionality the kernel was constructed for.
    [[nodiscard]] virtual std::size_t dim() const noexcept = 0;
};

/// Multivariate Epanechnikov kernel, Eq. (6) of the paper.
///
/// Sampling is exact and rejection-free: a draw is the first d coordinates
/// of a point uniform on the unit sphere S^{d+3} in R^{d+4}, i.e. d+4
/// standard normals scaled by one inverse norm. Projecting the uniform law
/// on S^{n-1} onto d coordinates gives the density proportional to
/// (1 - t^T t)^{(n-d)/2 - 1} on the unit ball; at n = d+4 the exponent is 1,
/// which is Eq. (6). Each draw consumes exactly d+4 `Rng::normal()` values.
class EpanechnikovKernel final : public SmoothingKernel {
public:
    /// Throws std::invalid_argument when dim == 0.
    explicit EpanechnikovKernel(std::size_t dim);

    [[nodiscard]] double density(std::span<const double> t) const override;
    void sample(rng::Rng& rng, std::span<double> out) const override;
    [[nodiscard]] std::size_t dim() const noexcept override { return dim_; }

    /// The normalizing constant 1/2 c_d^{-1} (d+2).
    [[nodiscard]] double normalizer() const noexcept { return norm_; }

private:
    std::size_t dim_;
    double norm_;
};

/// Isotropic standard multivariate Gaussian kernel (for ablations).
class GaussianKernel final : public SmoothingKernel {
public:
    explicit GaussianKernel(std::size_t dim);

    [[nodiscard]] double density(std::span<const double> t) const override;
    void sample(rng::Rng& rng, std::span<double> out) const override;
    [[nodiscard]] std::size_t dim() const noexcept override { return dim_; }

private:
    std::size_t dim_;
    double log_norm_;
};

}  // namespace htd::stats
