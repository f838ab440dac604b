#include "pipeline/health.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <stdexcept>

#include "ml/kmm.hpp"
#include "obs/journal.hpp"
#include "obs/obs.hpp"
#include "pipeline/pipeline.hpp"
#include "stats/descriptive.hpp"

namespace htd::core {

namespace {

constexpr double kTiny = 1e-300;

/// Linear-interpolation quantile of an already sorted sample.
double quantile_sorted(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    if (sorted.size() == 1) return sorted.front();
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::vector<double> sorted_copy(std::span<const double> xs) {
    std::vector<double> out(xs.begin(), xs.end());
    std::sort(out.begin(), out.end());
    return out;
}

/// |x| for every x, sorted ascending.
std::vector<double> sorted_abs(std::span<const double> xs) {
    std::vector<double> out(xs.size());
    std::transform(xs.begin(), xs.end(), out.begin(),
                   [](double x) { return std::abs(x); });
    std::sort(out.begin(), out.end());
    return out;
}

/// |v| for every entry of `m`, sorted ascending.
std::vector<double> sorted_abs(const linalg::Matrix& m) {
    std::vector<double> out;
    out.reserve(m.rows() * m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (const double v : m.row_span(r)) out.push_back(std::abs(v));
    }
    std::sort(out.begin(), out.end());
    return out;
}

/// Unbiased sample variance, 0 for fewer than two samples.
double sample_variance(std::span<const double> xs) {
    return xs.size() < 2 ? 0.0 : stats::variance(xs);
}

/// Mean Euclidean distance between the rows of `a` and the rows of `b`
/// (a == b handled by the caller passing the same matrix; self-pairs are
/// excluded there through the divisor).
double mean_cross_distance(const linalg::Matrix& a, const linalg::Matrix& b) {
    double sum = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.rows(); ++j) {
            double d2 = 0.0;
            for (std::size_t c = 0; c < a.cols(); ++c) {
                const double d = a(i, c) - b(j, c);
                d2 += d * d;
            }
            sum += std::sqrt(d2);
        }
    }
    return sum / (static_cast<double>(a.rows()) * static_cast<double>(b.rows()));
}

/// Mean pairwise distance within one sample, V-statistic form (self pairs
/// included with distance 0, divisor n^2): keeps the energy-distance
/// estimate nonnegative, matching the characteristic-function identity.
double mean_within_distance(const linalg::Matrix& a) {
    if (a.rows() < 2) return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = i + 1; j < a.rows(); ++j) {
            double d2 = 0.0;
            for (std::size_t c = 0; c < a.cols(); ++c) {
                const double d = a(i, c) - a(j, c);
                d2 += d * d;
            }
            sum += std::sqrt(d2);
        }
    }
    const double n = static_cast<double>(a.rows());
    return 2.0 * sum / (n * n);
}

/// One rung of a level ladder: `level` once the statistic is past `edge`.
struct Rung {
    HealthLevel level;
    double edge;
};

/// Which side of an edge is the bad side.
enum class Past { kAbove, kBelow };

/// Escalate `probe` on the first rung (listed worst first) whose edge
/// `value` is past, with the detail `reason(edge)`.
template <typename Reason>
void escalate_past(ProbeResult& probe, Past past, double value,
                   std::initializer_list<Rung> rungs, const Reason& reason) {
    for (const Rung& rung : rungs) {
        if (past == Past::kAbove ? value > rung.edge : value < rung.edge) {
            probe.escalate(rung.level, reason(rung.edge));
            return;
        }
    }
}

}  // namespace

std::string health_level_name(HealthLevel level) {
    switch (level) {
        case HealthLevel::kHealthy: return "healthy";
        case HealthLevel::kWarn: return "warn";
        case HealthLevel::kDegraded: return "degraded";
        case HealthLevel::kCritical: return "critical";
    }
    throw std::invalid_argument("health_level_name: unknown level");
}

HealthLevel health_level_from_name(std::string_view name) {
    if (name == "healthy") return HealthLevel::kHealthy;
    if (name == "warn") return HealthLevel::kWarn;
    if (name == "degraded") return HealthLevel::kDegraded;
    if (name == "critical") return HealthLevel::kCritical;
    throw std::invalid_argument("health_level_from_name: unknown level '" +
                                std::string(name) + "'");
}

// --- two-sample statistics ---------------------------------------------------

double ks_statistic(std::span<const double> a, std::span<const double> b) {
    if (a.empty() || b.empty()) {
        throw std::invalid_argument("ks_statistic: empty sample");
    }
    const std::vector<double> sa = sorted_copy(a);
    const std::vector<double> sb = sorted_copy(b);
    const double na = static_cast<double>(sa.size());
    const double nb = static_cast<double>(sb.size());
    std::size_t i = 0;
    std::size_t j = 0;
    double d = 0.0;
    while (i < sa.size() && j < sb.size()) {
        const double x = std::min(sa[i], sb[j]);
        while (i < sa.size() && sa[i] <= x) ++i;
        while (j < sb.size() && sb[j] <= x) ++j;
        d = std::max(d, std::abs(static_cast<double>(i) / na -
                                 static_cast<double>(j) / nb));
    }
    return d;
}

double scaled_ks_statistic(double d, std::size_t n, std::size_t m) {
    if (n == 0 || m == 0) {
        throw std::invalid_argument("scaled_ks_statistic: empty sample");
    }
    const double nn = static_cast<double>(n);
    const double mm = static_cast<double>(m);
    return d * std::sqrt(nn * mm / (nn + mm));
}

double energy_distance(const linalg::Matrix& a, const linalg::Matrix& b) {
    if (a.rows() == 0 || b.rows() == 0) {
        throw std::invalid_argument("energy_distance: empty sample");
    }
    if (a.cols() != b.cols()) {
        throw std::invalid_argument("energy_distance: column mismatch");
    }
    const double cross = mean_cross_distance(a, b);
    const double within_a = mean_within_distance(a);
    const double within_b = mean_within_distance(b);
    return std::max(0.0, 2.0 * cross - within_a - within_b);
}

double energy_coefficient(const linalg::Matrix& a, const linalg::Matrix& b) {
    if (a.rows() == 0 || b.rows() == 0 || a.cols() != b.cols()) return 0.0;
    const double cross = mean_cross_distance(a, b);
    if (cross <= kTiny) return 0.0;
    const double e =
        std::max(0.0, 2.0 * cross - mean_within_distance(a) - mean_within_distance(b));
    return e / (2.0 * cross);
}

double weight_entropy_ratio(std::span<const double> weights) noexcept {
    if (weights.size() < 2) return 0.0;
    double sum = 0.0;
    for (const double w : weights) sum += std::max(0.0, w);
    if (sum <= 0.0) return 0.0;
    double h = 0.0;
    for (const double w : weights) {
        const double p = std::max(0.0, w) / sum;
        if (p > 0.0) h -= p * std::log(p);
    }
    return h / std::log(static_cast<double>(weights.size()));
}

// --- ProbeResult -------------------------------------------------------------

void ProbeResult::escalate(HealthLevel at_least, const std::string& reason) {
    level = worse(level, at_least);
    if (!reason.empty()) {
        if (!detail.empty()) detail += "; ";
        detail += reason;
    }
}

io::Json ProbeResult::to_json() const {
    io::Json out = io::Json::object();
    out.set("name", name);
    out.set("level", health_level_name(level));
    out.set("detail", detail);
    io::Json vals = io::Json::object();
    for (const auto& [key, v] : values) {
        vals.set(key, std::isfinite(v) ? io::Json(v) : io::Json());
    }
    out.set("values", std::move(vals));
    return out;
}

// --- probe builders ----------------------------------------------------------
//
// Every band below is calibrated against the paper-default pipeline
// (quickstart / bench_table1 stay all-healthy) with headroom.

// kmm_weights: Kish ESS / n below the warn fraction warns, below the
// critical fraction is critical; so does one weight carrying too large a
// share of the mass; a low weight entropy ratio warns.
constexpr double kKmmEssFractionWarn = 0.15;
constexpr double kKmmEssFractionCritical = 0.05;
constexpr double kKmmMaxWeightShareWarn = 0.30;
constexpr double kKmmMaxWeightShareCritical = 0.60;
constexpr double kKmmEntropyRatioWarn = 0.50;

ProbeResult probe_kmm_weights(const linalg::Vector& weights) {
    ProbeResult probe;
    probe.name = "kmm_weights";
    const double n = static_cast<double>(weights.size());
    const double ess = ml::effective_sample_size(weights);
    const double ess_fraction = n > 0.0 ? ess / n : 0.0;
    double sum = 0.0;
    double max_w = 0.0;
    for (const double w : weights) {
        sum += std::max(0.0, w);
        max_w = std::max(max_w, w);
    }
    const double max_share = sum > 0.0 ? max_w / sum : 0.0;
    const double entropy = weight_entropy_ratio(weights.span());
    probe.value("weights", n)
        .value("effective_sample_size", ess)
        .value("ess_fraction", ess_fraction)
        .value("max_weight_share", max_share)
        .value("entropy_ratio", entropy);

    if (weights.size() == 0 || sum <= 0.0) {
        probe.escalate(HealthLevel::kCritical, "empty or all-zero weight vector");
        return probe;
    }
    if (ess_fraction < kKmmEssFractionCritical) {
        probe.escalate(HealthLevel::kCritical,
                       "Kish ESS fraction " + std::to_string(ess_fraction) +
                           " below critical floor " +
                           std::to_string(kKmmEssFractionCritical));
    } else if (ess_fraction < kKmmEssFractionWarn) {
        probe.escalate(HealthLevel::kWarn,
                       "Kish ESS fraction " + std::to_string(ess_fraction) +
                           " below " + std::to_string(kKmmEssFractionWarn));
    }
    if (max_share > kKmmMaxWeightShareCritical) {
        probe.escalate(HealthLevel::kCritical,
                       "one weight carries " + std::to_string(max_share) +
                           " of the total mass");
    } else if (max_share > kKmmMaxWeightShareWarn) {
        probe.escalate(HealthLevel::kWarn,
                       "max weight share " + std::to_string(max_share) + " above " +
                           std::to_string(kKmmMaxWeightShareWarn));
    }
    if (entropy < kKmmEntropyRatioWarn) {
        probe.escalate(HealthLevel::kWarn,
                       "weight entropy ratio " + std::to_string(entropy) + " below " +
                           std::to_string(kKmmEntropyRatioWarn));
    }
    return probe;
}

// calibration: the kernel mean shift in units of the reference cloud's
// RMS column spread. The paper-default 4.5 sigma foundry process shift
// lands near 4.4 (measured on the E15 harness), so the band starts at
// roughly 2x the designed operating point.
constexpr double kCalibrationShiftWarn = 8.0;
constexpr double kCalibrationShiftCritical = 16.0;

ProbeResult probe_calibration(const linalg::Matrix& reference,
                              const linalg::Vector& total_shift,
                              std::size_t iterations) {
    ProbeResult probe;
    probe.name = "calibration";
    double variance_sum = 0.0;
    for (std::size_t c = 0; c < reference.cols(); ++c) {
        variance_sum += sample_variance(reference.col(c).span());
    }
    const double rms_spread =
        std::sqrt(variance_sum / static_cast<double>(reference.cols()));
    const double shift_norm = total_shift.norm();
    const double shift_sigma = shift_norm / std::max(rms_spread, kTiny);
    probe.value("shift_norm", shift_norm)
        .value("reference_rms_spread", rms_spread)
        .value("shift_sigma", shift_sigma)
        .value("iterations", static_cast<double>(iterations));
    escalate_past(probe, Past::kAbove, shift_sigma,
                  {{HealthLevel::kCritical, kCalibrationShiftCritical},
                   {HealthLevel::kWarn, kCalibrationShiftWarn}},
                  [&](double edge) {
                      return "calibration shift " + std::to_string(shift_sigma) +
                             " reference sigmas (above " + std::to_string(edge) +
                             ")";
                  });
    return probe;
}

// drift.*: the size-normalized per-channel KS maximum (warn ~p = 0.01,
// degraded ~p = 0.001) and the energy coefficient over full vectors.
constexpr double kDriftScaledKsWarn = 1.63;
constexpr double kDriftScaledKsDegraded = 1.95;
constexpr double kDriftScaledKsCritical = 2.80;
constexpr double kDriftEnergyCoefficientWarn = 0.15;
constexpr double kDriftEnergyCoefficientCritical = 0.35;

ProbeResult probe_drift(std::string_view name, const linalg::Matrix& reference,
                        const linalg::Matrix& incoming) {
    ProbeResult probe;
    probe.name = std::string(name);
    if (reference.rows() == 0 || incoming.rows() == 0 ||
        reference.cols() != incoming.cols()) {
        probe.escalate(HealthLevel::kCritical,
                       "degenerate drift inputs (empty batch or channel mismatch)");
        return probe;
    }

    double max_ks = 0.0;
    double max_scaled = 0.0;
    double max_shift_sigma = 0.0;
    probe.value("channels", static_cast<double>(reference.cols()));
    probe.value("reference_rows", static_cast<double>(reference.rows()));
    probe.value("incoming_rows", static_cast<double>(incoming.rows()));
    // Per-channel statistics are emitted for the first 16 channels (PCM
    // vectors are short); the maxima below always cover every channel.
    constexpr std::size_t kMaxChannelEmit = 16;
    for (std::size_t c = 0; c < reference.cols(); ++c) {
        const linalg::Vector ref = reference.col(c);
        const linalg::Vector inc = incoming.col(c);
        const double d = ks_statistic(ref.span(), inc.span());
        const double scaled = scaled_ks_statistic(d, ref.size(), inc.size());
        const double sigma_ref = std::sqrt(sample_variance(ref.span()));
        const double shift_sigma =
            std::abs(stats::mean(inc.span()) - stats::mean(ref.span())) /
            std::max(sigma_ref, kTiny);
        max_ks = std::max(max_ks, d);
        max_scaled = std::max(max_scaled, scaled);
        max_shift_sigma = std::max(max_shift_sigma, shift_sigma);
        if (c < kMaxChannelEmit) {
            const std::string suffix = "_ch" + std::to_string(c);
            probe.value("ks" + suffix, d);
            probe.value("scaled_ks" + suffix, scaled);
            probe.value("mean_shift_sigma" + suffix, shift_sigma);
        }
    }
    const double energy = energy_distance(reference, incoming);
    const double coefficient = energy_coefficient(reference, incoming);
    probe.value("max_ks", max_ks)
        .value("max_scaled_ks", max_scaled)
        .value("max_mean_shift_sigma", max_shift_sigma)
        .value("energy_distance", energy)
        .value("energy_coefficient", coefficient);

    escalate_past(probe, Past::kAbove, max_scaled,
                  {{HealthLevel::kCritical, kDriftScaledKsCritical},
                   {HealthLevel::kDegraded, kDriftScaledKsDegraded},
                   {HealthLevel::kWarn, kDriftScaledKsWarn}},
                  [&](double edge) {
                      return "per-channel scaled KS " + std::to_string(max_scaled) +
                             " above " + std::to_string(edge);
                  });
    escalate_past(probe, Past::kAbove, coefficient,
                  {{HealthLevel::kCritical, kDriftEnergyCoefficientCritical},
                   {HealthLevel::kWarn, kDriftEnergyCoefficientWarn}},
                  [&](double edge) {
                      return "energy coefficient " + std::to_string(coefficient) +
                             " above " + std::to_string(edge);
                  });
    return probe;
}

// kde.*: the mean per-axis fraction of synthetic samples outside the
// source population's [min, max] range, and the largest per-axis ratio of
// synthetic to source range. Tail enhancement is the point, so only
// runaway expansion alarms.
constexpr double kKdeTailMassWarn = 0.25;
constexpr double kKdeTailMassCritical = 0.50;
constexpr double kKdeRangeExpansionWarn = 3.0;
constexpr double kKdeRangeExpansionCritical = 6.0;

ProbeResult probe_kde(std::string_view name, const linalg::Matrix& source,
                      const linalg::Matrix& synthetic, double bandwidth) {
    ProbeResult probe;
    probe.name = std::string(name);
    probe.value("bandwidth", bandwidth)
        .value("observations", static_cast<double>(source.rows()))
        .value("synthetic_samples", static_cast<double>(synthetic.rows()));
    if (source.rows() == 0 || synthetic.rows() == 0 ||
        source.cols() != synthetic.cols()) {
        probe.escalate(HealthLevel::kCritical,
                       "degenerate KDE inputs (empty population or dim mismatch)");
        return probe;
    }
    if (!(bandwidth > 0.0)) {
        probe.escalate(HealthLevel::kWarn, "non-positive bandwidth");
    }

    double tail_mass_sum = 0.0;
    double max_expansion = 0.0;
    for (std::size_t c = 0; c < source.cols(); ++c) {
        double lo = source(0, c);
        double hi = source(0, c);
        for (std::size_t r = 1; r < source.rows(); ++r) {
            lo = std::min(lo, source(r, c));
            hi = std::max(hi, source(r, c));
        }
        double syn_lo = synthetic(0, c);
        double syn_hi = synthetic(0, c);
        std::size_t outside = 0;
        for (std::size_t r = 0; r < synthetic.rows(); ++r) {
            const double v = synthetic(r, c);
            syn_lo = std::min(syn_lo, v);
            syn_hi = std::max(syn_hi, v);
            if (v < lo || v > hi) ++outside;
        }
        tail_mass_sum +=
            static_cast<double>(outside) / static_cast<double>(synthetic.rows());
        const double src_range = std::max(hi - lo, kTiny);
        max_expansion = std::max(max_expansion, (syn_hi - syn_lo) / src_range);
    }
    const double tail_mass = tail_mass_sum / static_cast<double>(source.cols());
    probe.value("tail_mass", tail_mass).value("max_range_expansion", max_expansion);

    escalate_past(probe, Past::kAbove, tail_mass,
                  {{HealthLevel::kCritical, kKdeTailMassCritical},
                   {HealthLevel::kWarn, kKdeTailMassWarn}},
                  [&](double edge) {
                      return "mean per-axis tail mass " + std::to_string(tail_mass) +
                             " above " + std::to_string(edge);
                  });
    escalate_past(probe, Past::kAbove, max_expansion,
                  {{HealthLevel::kCritical, kKdeRangeExpansionCritical},
                   {HealthLevel::kWarn, kKdeRangeExpansionWarn}},
                  [&](double edge) {
                      return "synthetic range expansion " +
                             std::to_string(max_expansion) + "x above " +
                             std::to_string(edge) + "x";
                  });
    return probe;
}

// mars_fit: the mean training R^2 across the bank.
constexpr double kMarsR2Warn = 0.50;
constexpr double kMarsR2Critical = 0.20;

ProbeResult probe_mars_fit(std::span<const double> per_output_r2,
                           const linalg::Matrix& abs_residuals) {
    ProbeResult probe;
    probe.name = "mars_fit";
    if (per_output_r2.empty()) {
        probe.escalate(HealthLevel::kCritical, "no fitted regression outputs");
        return probe;
    }
    double mean_r2 = 0.0;
    double min_r2 = per_output_r2.front();
    for (const double r2 : per_output_r2) {
        mean_r2 += r2;
        min_r2 = std::min(min_r2, r2);
    }
    mean_r2 /= static_cast<double>(per_output_r2.size());

    const std::vector<double> pooled = sorted_abs(abs_residuals);
    probe.value("outputs", static_cast<double>(per_output_r2.size()))
        .value("mean_r2", mean_r2)
        .value("min_r2", min_r2)
        .value("residual_q50", quantile_sorted(pooled, 0.50))
        .value("residual_q90", quantile_sorted(pooled, 0.90))
        .value("residual_q99", quantile_sorted(pooled, 0.99));

    escalate_past(probe, Past::kBelow, mean_r2,
                  {{HealthLevel::kCritical, kMarsR2Critical},
                   {HealthLevel::kWarn, kMarsR2Warn}},
                  [&](double edge) {
                      return "mean training R^2 " + std::to_string(mean_r2) +
                             " below " + std::to_string(edge);
                  });
    return probe;
}

// regression_residuals: the incoming |residual| q90 relative to the
// training q90. The incoming population legitimately contains Trojans and
// sits at the shifted foundry operating point, so the band is generous.
constexpr double kResidualQ90RatioWarn = 8.0;
constexpr double kResidualQ90RatioCritical = 25.0;

ProbeResult probe_regression_residuals(const linalg::Matrix& train_abs_residuals,
                                       const linalg::Matrix& incoming_abs_residuals) {
    ProbeResult probe;
    probe.name = "regression_residuals";
    if (train_abs_residuals.rows() == 0 || incoming_abs_residuals.rows() == 0 ||
        train_abs_residuals.cols() != incoming_abs_residuals.cols()) {
        probe.escalate(HealthLevel::kCritical,
                       "degenerate residual inputs (empty set or output mismatch)");
        return probe;
    }

    const auto pooled_quantiles = [](const linalg::Matrix& m) {
        const std::vector<double> pooled = sorted_abs(m);
        return std::array<double, 3>{quantile_sorted(pooled, 0.50),
                                     quantile_sorted(pooled, 0.90),
                                     quantile_sorted(pooled, 0.99)};
    };
    const auto train_q = pooled_quantiles(train_abs_residuals);
    const auto incoming_q = pooled_quantiles(incoming_abs_residuals);
    const auto ratio = [](double incoming, double train) {
        return incoming / std::max(train, kTiny);
    };

    // Worst per-output q90 ratio: one stale regression hides in the pool.
    double max_output_ratio = 0.0;
    for (std::size_t c = 0; c < train_abs_residuals.cols(); ++c) {
        const std::vector<double> train_col =
            sorted_abs(train_abs_residuals.col(c).span());
        const std::vector<double> incoming_col =
            sorted_abs(incoming_abs_residuals.col(c).span());
        max_output_ratio =
            std::max(max_output_ratio, ratio(quantile_sorted(incoming_col, 0.90),
                                             quantile_sorted(train_col, 0.90)));
    }

    const double q90_ratio = ratio(incoming_q[1], train_q[1]);
    probe.value("incoming_devices", static_cast<double>(incoming_abs_residuals.rows()))
        .value("train_q50", train_q[0])
        .value("train_q90", train_q[1])
        .value("train_q99", train_q[2])
        .value("incoming_q50", incoming_q[0])
        .value("incoming_q90", incoming_q[1])
        .value("incoming_q99", incoming_q[2])
        .value("q50_ratio", ratio(incoming_q[0], train_q[0]))
        .value("q90_ratio", q90_ratio)
        .value("q99_ratio", ratio(incoming_q[2], train_q[2]))
        .value("max_output_q90_ratio", max_output_ratio);

    escalate_past(probe, Past::kAbove, q90_ratio,
                  {{HealthLevel::kCritical, kResidualQ90RatioCritical},
                   {HealthLevel::kWarn, kResidualQ90RatioWarn}},
                  [&](double edge) {
                      return "incoming residual q90 " + std::to_string(q90_ratio) +
                             "x the training q90 (above " + std::to_string(edge) +
                             "x)";
                  });
    return probe;
}

// svm.*: the support-vector fraction of the trained samples, and the
// fraction of training points outside the boundary relative to nu (SMO
// should leave ~nu outside; a large excess means it failed).
constexpr double kSvmSvFractionWarn = 0.75;
constexpr double kSvmSvFractionCritical = 0.95;
constexpr double kSvmOutlierExcessWarn = 3.0;
constexpr double kSvmOutlierExcessCritical = 6.0;

ProbeResult probe_svm_margins(std::string_view name,
                              std::span<const double> train_decision_values,
                              double nu, std::size_t support_vectors,
                              std::size_t trained_samples) {
    ProbeResult probe;
    probe.name = std::string(name);
    if (train_decision_values.empty() || trained_samples == 0) {
        probe.escalate(HealthLevel::kCritical, "no training decision values");
        return probe;
    }
    std::vector<double> sorted = sorted_copy(train_decision_values);
    std::size_t outside = 0;
    for (const double v : sorted) {
        if (v < 0.0) ++outside;
    }
    const double outside_fraction =
        static_cast<double>(outside) / static_cast<double>(sorted.size());
    const double sv_fraction =
        static_cast<double>(support_vectors) / static_cast<double>(trained_samples);
    const double outlier_excess = outside_fraction / std::max(nu, 1e-6);
    probe.value("trained_samples", static_cast<double>(trained_samples))
        .value("support_vectors", static_cast<double>(support_vectors))
        .value("sv_fraction", sv_fraction)
        .value("outside_fraction", outside_fraction)
        .value("outlier_excess", outlier_excess)
        .value("margin_q05", quantile_sorted(sorted, 0.05))
        .value("margin_q50", quantile_sorted(sorted, 0.50));

    escalate_past(probe, Past::kAbove, sv_fraction,
                  {{HealthLevel::kCritical, kSvmSvFractionCritical},
                   {HealthLevel::kWarn, kSvmSvFractionWarn}},
                  [&](double edge) {
                      return "support-vector fraction " + std::to_string(sv_fraction) +
                             " above " + std::to_string(edge);
                  });
    escalate_past(probe, Past::kAbove, outlier_excess,
                  {{HealthLevel::kCritical, kSvmOutlierExcessCritical},
                   {HealthLevel::kWarn, kSvmOutlierExcessWarn}},
                  [&](double) {
                      return std::to_string(outside_fraction) +
                             " of training points left outside vs nu " +
                             std::to_string(nu);
                  });
    return probe;
}

ProbeResult probe_boundaries(const std::array<BoundaryStatus, 5>& status) {
    ProbeResult probe;
    probe.name = "boundaries";
    double healthy = 0.0;
    double degraded = 0.0;
    double failed = 0.0;
    std::string bad;
    for (const Boundary b : kAllBoundaries) {
        const BoundaryStatus& st = status[static_cast<std::size_t>(b)];
        switch (st.health) {
            case BoundaryHealth::kHealthy: healthy += 1.0; break;
            case BoundaryHealth::kDegraded:
                degraded += 1.0;
                if (!bad.empty()) bad += ", ";
                bad += boundary_name(b) + " degraded";
                break;
            case BoundaryHealth::kFailed:
                failed += 1.0;
                if (!bad.empty()) bad += ", ";
                bad += boundary_name(b) + " failed";
                break;
            case BoundaryHealth::kUntrained: break;
        }
    }
    probe.value("healthy", healthy).value("degraded", degraded).value("failed", failed);
    if (failed > 0.0) {
        probe.escalate(HealthLevel::kCritical, bad);
    } else if (degraded > 0.0) {
        probe.escalate(HealthLevel::kDegraded, bad);
    }
    return probe;
}

// --- HealthMonitor -----------------------------------------------------------

void HealthMonitor::record(ProbeResult probe) {
    ProbeResult stored;
    HealthLevel verdict_now = HealthLevel::kHealthy;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        auto it = std::find_if(
            probes_.begin(), probes_.end(),
            [&](const ProbeResult& p) { return p.name == probe.name; });
        if (it == probes_.end()) {
            probes_.push_back(std::move(probe));
            it = probes_.end() - 1;
        } else {
            *it = std::move(probe);
        }
        stored = *it;
        verdict_now = verdict_locked();
    }
    // Gauge publication happens outside the probe lock: the Registry has
    // its own mutex and the Health -> Registry lock order must never be
    // entangled (a sink flushing while a stage records must not deadlock).
    // The journal append follows the same discipline (its own mutex, never
    // nested inside probe state).
    obs::EventJournal& journal = obs::EventJournal::global();
    if (journal.enabled() && stored.name.rfind("drift.", 0) == 0 &&
        stored.level >= HealthLevel::kDegraded) {
        obs::Event ev("drift_trip");
        ev.detail = stored.name + ": " + stored.detail;
        for (const auto& [key, v] : stored.values) ev.value(key, v);
        journal.append(std::move(ev));
    }
    obs::Registry& registry = obs::Registry::global();
    registry.counter_add("health.probes_recorded");
    for (const auto& [key, v] : stored.values) {
        registry.gauge_set("health." + stored.name + "." + key, v);
    }
    registry.gauge_set("health." + stored.name + ".level",
                       static_cast<double>(stored.level));
    registry.gauge_set("health.verdict", static_cast<double>(verdict_now));
}

HealthLevel HealthMonitor::verdict_locked() const {
    HealthLevel v = HealthLevel::kHealthy;
    for (const ProbeResult& p : probes_) v = worse(v, p.level);
    return v;
}

HealthLevel HealthMonitor::verdict() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return verdict_locked();
}

std::vector<ProbeResult> HealthMonitor::probes() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return probes_;
}

std::optional<ProbeResult> HealthMonitor::find(std::string_view name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const ProbeResult& p : probes_) {
        if (p.name == name) return p;
    }
    return std::nullopt;
}

void HealthMonitor::clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    probes_.clear();
}

io::Json HealthMonitor::to_json() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    io::Json out = io::Json::object();
    out.set("verdict", health_level_name(verdict_locked()));
    io::Json probes = io::Json::array();
    for (const ProbeResult& p : probes_) probes.push_back(p.to_json());
    out.set("probes", std::move(probes));
    return out;
}

}  // namespace htd::core
