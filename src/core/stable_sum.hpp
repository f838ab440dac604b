#pragma once
/// \file stable_sum.hpp
/// Order-pinned floating-point summation.
///
/// `StableAccumulator` is a Neumaier-compensated (improved Kahan) running
/// sum. It adds terms left to right like a naive `+=`, but tracks the
/// rounding error of every addition in a compensation term, so the result
/// is accurate to ~1 ulp of the true sum even under catastrophic
/// cancellation. The Monte Carlo power sum, the KDE kernel sums and the
/// KMM kappa rows use it; the bits of every fingerprint, density and
/// B-score depend on its exact operation order, which the hot-loop pins
/// in tests/test_stable_sum.cpp hold fixed.

namespace htd::core {

/// Neumaier-compensated running sum (Kahan variant that also handles the
/// case where the incoming term is larger than the running sum). Usage
/// mirrors a naive accumulator:
///
///     StableAccumulator acc;
///     for (double x : xs) acc.add(x);
///     double total = acc.value();
class StableAccumulator {
public:
    constexpr StableAccumulator() = default;

    /// Adds one term, folding its rounding error into the compensation.
    constexpr void add(double x) noexcept {
        const double t = sum_ + x;
        // The larger-magnitude operand donates the exactly-representable
        // residue of the addition (Neumaier's refinement over Kahan).
        const double abs_sum = sum_ < 0.0 ? -sum_ : sum_;
        const double abs_x = x < 0.0 ? -x : x;
        if (abs_sum >= abs_x) {
            comp_ += (sum_ - t) + x;
        } else {
            comp_ += (x - t) + sum_;
        }
        sum_ = t;
    }

    /// The compensated sum of everything added so far.
    [[nodiscard]] constexpr double value() const noexcept { return sum_ + comp_; }

private:
    double sum_ = 0.0;
    double comp_ = 0.0;
};

}  // namespace htd::core
