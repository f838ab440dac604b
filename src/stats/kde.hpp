#pragma once
/// \file kde.hpp
/// Non-parametric kernel density estimation and synthetic-data generation —
/// the paper's tail-modeling engine (Section 2.5).
///
/// Two estimators are provided:
///  - `Kde`: the fixed-bandwidth estimate of Eq. (5),
///        f(m) = 1/(M h^d) sum_i Ke((m - m_i)/h)
///  - `AdaptiveKde`: the adaptive estimate of Eq. (7),
///        f_a(m) = 1/M sum_i (h lambda_i)^{-d} Ke((m - m_i)/(h lambda_i))
///    with local bandwidth factors lambda_i = (f(m_i)/g)^{-alpha} (Eq. 8),
///    where g is the geometric mean of the pilot density over the
///    observations (Eq. 9). Observations in low-density tails receive larger
///    bandwidths, which is exactly what lets the synthetic population S2/S5
///    "fill out" the distribution tails.
///
/// Both estimators standardize each coordinate internally (zero mean, unit
/// variance) so a single scalar bandwidth is meaningful for anisotropic
/// fingerprint data; densities and samples are reported in the original
/// space with the correct Jacobian factor.

#include <memory>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "rng/rng.hpp"
#include "stats/kernels.hpp"

namespace htd::stats {

/// Which smoothing kernel a KDE uses.
enum class KernelType {
    kEpanechnikov,  ///< the paper's kernel (Eq. 6)
    kGaussian,      ///< for ablation studies
};

/// Silverman-style rule-of-thumb bandwidth for standardized data:
/// h = A(K) M^{-1/(d+4)} with A(K) the kernel's canonical constant
/// (Epanechnikov: [8 c_d^{-1} (d+4) (2 sqrt(pi))^d]^{1/(d+4)}; Gaussian:
/// (4/(d+2))^{1/(d+4)}). Throws on M == 0 or d == 0.
[[nodiscard]] double silverman_bandwidth(std::size_t n_samples, std::size_t dim,
                                         KernelType kernel = KernelType::kEpanechnikov);

/// Fixed-bandwidth kernel density estimate, Eq. (5).
class Kde {
public:
    /// The complete estimator state in the internal (standardized)
    /// representation. Persisting this exact representation — rather than
    /// the original observations — makes a re-imported estimator evaluate
    /// densities and draw samples bitwise-identically (re-standardizing
    /// would re-round the division).
    struct State {
        linalg::Matrix std_data;    ///< standardized observations
        linalg::Vector col_mean;
        linalg::Vector col_scale;   ///< per-column std (>= tiny floor)
        double h = 0.0;             ///< bandwidth in the standardized space
        double jacobian = 1.0;
        KernelType kernel = KernelType::kEpanechnikov;
    };

    /// Build from observations (rows of `data`). `bandwidth <= 0` selects the
    /// Silverman rule-of-thumb. Throws std::invalid_argument on an empty
    /// dataset or unknown kernel.
    explicit Kde(const linalg::Matrix& data, double bandwidth = 0.0,
                 KernelType kernel = KernelType::kEpanechnikov);

    /// Snapshot of the estimator state.
    [[nodiscard]] State export_state() const;

    /// Rebuild an estimator from exported state; throws
    /// std::invalid_argument on empty observations, shape mismatches, a
    /// non-positive bandwidth/jacobian, or non-finite stored values.
    [[nodiscard]] static Kde from_state(State state);

    Kde(const Kde&) = delete;
    Kde& operator=(const Kde&) = delete;
    Kde(Kde&&) = default;
    Kde& operator=(Kde&&) = default;

    /// Density estimate at `x` in the original data space.
    [[nodiscard]] double density(const linalg::Vector& x) const;

    /// Draw one synthetic sample: pick an observation uniformly, then add a
    /// kernel-distributed displacement scaled by the bandwidth.
    [[nodiscard]] linalg::Vector sample(rng::Rng& rng) const;

    /// Draw `n` synthetic samples stacked as rows. This is the
    /// "enhanced synthetic data generation" step of the paper (M' >> M).
    [[nodiscard]] linalg::Matrix sample_n(rng::Rng& rng, std::size_t n) const;

    /// Bandwidth in the standardized space.
    [[nodiscard]] double bandwidth() const noexcept { return h_; }

    /// Number of observations M.
    [[nodiscard]] std::size_t observation_count() const noexcept { return std_data_.rows(); }

    /// Dimensionality d.
    [[nodiscard]] std::size_t dim() const noexcept { return std_data_.cols(); }

private:
    friend class AdaptiveKde;

    /// Uninitialized shell for from_state / AdaptiveKde::from_state.
    Kde() = default;

    /// Density in the standardized space (no Jacobian factor).
    [[nodiscard]] double standardized_density(std::span<const double> z) const;

    /// The Epanechnikov normalizer; only valid when kernel_type_ is
    /// kEpanechnikov.
    [[nodiscard]] double epanechnikov_norm() const;

    /// One synthetic draw written to `out`: observation i uniform, a kernel
    /// displacement into the buffer `disp`, scaled by `local_h[i]` (by h_
    /// when `local_h` is empty). Both spans have size dim().
    void draw(rng::Rng& rng, std::span<const double> local_h, std::span<double> disp,
              std::span<double> out) const;

    /// `n` draws straight into the rows of the result, sharing one
    /// displacement buffer; counts them as drawn samples.
    [[nodiscard]] linalg::Matrix draw_n(rng::Rng& rng, std::size_t n,
                                        std::span<const double> local_h) const;

    linalg::Matrix std_data_;         // standardized observations
    linalg::Vector col_mean_;
    linalg::Vector col_scale_;        // per-column std (>= tiny floor)
    double h_ = 0.0;
    double jacobian_ = 1.0;           // prod(col_scale_) for original-space density
    KernelType kernel_type_ = KernelType::kEpanechnikov;
    std::unique_ptr<SmoothingKernel> kernel_;
};

/// Adaptive kernel density estimate, Eqs. (7)-(9) of the paper.
class AdaptiveKde {
public:
    /// Build from observations. `alpha` in [0, 1] controls local bandwidth
    /// spread (0 degenerates to the fixed KDE; the paper notes larger alpha
    /// widens the nonzero-density region). `bandwidth <= 0` selects the
    /// Silverman rule for the pilot and the adaptive stage. `max_lambda`
    /// clamps the local factors of Eq. (8): in >= 6 dimensions the pilot
    /// density spans many orders of magnitude and unclamped tail factors
    /// would scatter synthetic samples arbitrarily far from the data.
    /// Throws std::invalid_argument for alpha outside [0, 1], empty data, or
    /// max_lambda < 1.
    explicit AdaptiveKde(const linalg::Matrix& data, double alpha = 0.5,
                         double bandwidth = 0.0,
                         KernelType kernel = KernelType::kEpanechnikov,
                         double max_lambda = 2.5);

    /// Complete adaptive-estimator state: the pilot KDE plus the resolved
    /// local bandwidth factors of Eq. (8). Re-importing skips the quadratic
    /// pilot-density pass entirely and reproduces densities and samples
    /// bitwise.
    struct State {
        Kde::State pilot;
        double alpha = 0.5;
        double g = 1.0;               ///< Eq. (9) pilot geometric mean
        std::vector<double> lambda;   ///< Eq. (8) factors, one per observation
    };

    /// Snapshot of the estimator state.
    [[nodiscard]] State export_state() const;

    /// Rebuild from exported state; throws std::invalid_argument when the
    /// lambda count disagrees with the pilot observations, alpha is outside
    /// [0, 1], g is non-positive, or any factor is non-finite or < 1e-12.
    /// Like the constructor, it derives h * lambda_i and (h * lambda_i)^d;
    /// State does not carry them.
    [[nodiscard]] static AdaptiveKde from_state(State state);

    AdaptiveKde(const AdaptiveKde&) = delete;
    AdaptiveKde& operator=(const AdaptiveKde&) = delete;
    AdaptiveKde(AdaptiveKde&&) = default;
    AdaptiveKde& operator=(AdaptiveKde&&) = default;

    /// Adaptive density estimate at `x` in the original data space.
    [[nodiscard]] double density(const linalg::Vector& x) const;

    /// One synthetic draw: observation i uniform, displacement scaled by
    /// h * lambda_i.
    [[nodiscard]] linalg::Vector sample(rng::Rng& rng) const;

    /// `n` synthetic draws stacked as rows.
    [[nodiscard]] linalg::Matrix sample_n(rng::Rng& rng, std::size_t n) const;

    /// Local bandwidth factor lambda_i for observation i (Eq. 8).
    [[nodiscard]] double local_bandwidth_factor(std::size_t i) const;

    /// Geometric mean g of the pilot densities (Eq. 9).
    [[nodiscard]] double pilot_geometric_mean() const noexcept { return g_; }

    [[nodiscard]] double alpha() const noexcept { return alpha_; }
    [[nodiscard]] double bandwidth() const noexcept { return pilot_.bandwidth(); }
    [[nodiscard]] std::size_t observation_count() const noexcept {
        return pilot_.observation_count();
    }
    [[nodiscard]] std::size_t dim() const noexcept { return pilot_.dim(); }

private:
    /// Uninitialized shell for from_state.
    AdaptiveKde() : alpha_(0.5) {}

    /// Fills local_h_ and local_h_pow_d_ from the pilot bandwidth and
    /// lambda_; run at build and in from_state.
    void derive_bandwidths();

    Kde pilot_;
    double alpha_;
    double g_ = 1.0;
    std::vector<double> lambda_;
    // Derived, not stored in State: h * lambda_i and (h * lambda_i)^d, the
    // per-observation bandwidth and its volume factor in Eq. (7). Computing
    // them once keeps std::pow out of every density evaluation with the same
    // bits.
    std::vector<double> local_h_;
    std::vector<double> local_h_pow_d_;
};

}  // namespace htd::stats
