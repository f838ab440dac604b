#pragma once
/// \file mars.hpp
/// Multivariate Adaptive Regression Splines (Friedman, 1991) — the
/// non-linear regression family the paper uses to learn g_j : m_p -> m_j,
/// the map from PCM measurements to each side-channel fingerprint.
///
/// The model is a sum of products of hinge functions,
///     f(x) = c_0 + sum_m c_m prod_k max(0, s_k (x_{v_k} - t_k)),
/// grown greedily (forward pass adds the best mirrored hinge pair anchored
/// at a training knot) and pruned backward under the generalized
/// cross-validation (GCV) criterion.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace htd::ml {

/// One hinge factor max(0, sign * (x[variable] - knot)).
struct HingeFactor {
    std::size_t variable = 0;  ///< input coordinate index
    double knot = 0.0;         ///< hinge location t
    bool positive = true;      ///< true: max(0, x-t); false: max(0, t-x)

    /// Evaluate the factor on an input sample.
    [[nodiscard]] double evaluate(std::span<const double> x) const noexcept {
        const double d = x[variable] - knot;
        const double v = positive ? d : -d;
        return v > 0.0 ? v : 0.0;
    }

    friend bool operator==(const HingeFactor&, const HingeFactor&) = default;
};

/// A basis term: product of hinge factors. An empty factor list is the
/// intercept term (constant 1).
struct BasisTerm {
    std::vector<HingeFactor> factors;

    [[nodiscard]] double evaluate(std::span<const double> x) const noexcept {
        double v = 1.0;
        for (const HingeFactor& f : factors) {
            v *= f.evaluate(x);
            if (v == 0.0) return 0.0;
        }
        return v;
    }

    /// Interaction degree (number of hinge factors).
    [[nodiscard]] std::size_t degree() const noexcept { return factors.size(); }

    /// True when the term already uses input coordinate `v`.
    [[nodiscard]] bool uses_variable(std::size_t v) const noexcept;

    /// Human-readable rendering, e.g. "h(+(x0 - 1.25)) * h(-(x2 - 0.5))".
    [[nodiscard]] std::string str() const;

    friend bool operator==(const BasisTerm&, const BasisTerm&) = default;
};

/// MARS regressor for a single scalar response.
class Mars {
public:
    struct Options {
        /// Maximum number of basis terms including the intercept. The paper's
        /// pipeline uses the default; larger values fit sharper curvature.
        std::size_t max_terms = 21;

        /// Maximum interaction degree (1 = additive model).
        std::size_t max_degree = 2;

        /// GCV knot penalty d in C(M) = M + d (M - 1) / 2.
        double penalty = 3.0;

        /// Run the backward GCV pruning pass.
        bool prune = true;

        /// Cap on distinct candidate knots per variable; 0 = use every
        /// distinct training value (fine for n in the hundreds).
        std::size_t max_knots_per_variable = 0;

        /// Stop the forward pass when the relative SSE improvement of the
        /// best candidate falls below this threshold.
        double min_relative_improvement = 1e-9;
    };

    Mars() = default;
    explicit Mars(Options opts);

    /// Fit on training inputs `x` (rows are samples) and responses `y`.
    /// Throws std::invalid_argument on shape mismatch or an empty dataset.
    void fit(const linalg::Matrix& x, const linalg::Vector& y);

    [[nodiscard]] bool fitted() const noexcept { return fitted_; }

    /// Predict the response for one sample; throws std::logic_error when not
    /// fitted and std::invalid_argument on dimension mismatch.
    [[nodiscard]] double predict(std::span<const double> x) const;
    [[nodiscard]] double predict(const linalg::Vector& x) const;

    /// Predict for every row of `x`.
    [[nodiscard]] linalg::Vector predict_batch(const linalg::Matrix& x) const;

    /// Final basis terms (index 0 is the intercept) and their coefficients.
    [[nodiscard]] const std::vector<BasisTerm>& terms() const noexcept { return terms_; }
    [[nodiscard]] const std::vector<double>& coefficients() const noexcept { return coef_; }

    /// GCV score of the final model.
    [[nodiscard]] double gcv() const noexcept { return gcv_; }

    /// Training R^2 of the final model.
    [[nodiscard]] double r_squared() const noexcept { return r2_; }

    [[nodiscard]] const Options& options() const noexcept { return opts_; }

private:
    Options opts_{};
    bool fitted_ = false;
    std::size_t input_dim_ = 0;
    std::vector<BasisTerm> terms_;
    std::vector<double> coef_;
    double gcv_ = 0.0;
    double r2_ = 0.0;
};

/// Convenience bundle: one MARS model per output dimension, fit on a shared
/// input matrix. This is exactly the paper's bank of regression functions
/// g_j : m_p -> m_j for j = 1..nm.
class MarsBank {
public:
    MarsBank() = default;
    explicit MarsBank(Mars::Options opts) : opts_(opts) {}

    /// Fit one model per column of `y`; throws on shape mismatch.
    void fit(const linalg::Matrix& x, const linalg::Matrix& y);

    [[nodiscard]] bool fitted() const noexcept { return !models_.empty(); }

    /// Predict the full output vector for one input sample.
    [[nodiscard]] linalg::Vector predict(const linalg::Vector& x) const;

    /// Predict outputs for every input row; result is rows(x) x output_dim.
    [[nodiscard]] linalg::Matrix predict_batch(const linalg::Matrix& x) const;

    [[nodiscard]] std::size_t output_dim() const noexcept { return models_.size(); }
    [[nodiscard]] const Mars& model(std::size_t j) const { return models_.at(j); }

    /// Mean training R^2 over the outputs (0 before fit).
    [[nodiscard]] double mean_r_squared() const noexcept;

private:
    Mars::Options opts_{};
    std::vector<Mars> models_;
};

}  // namespace htd::ml
