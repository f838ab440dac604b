#include "obs/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>

#include "obs/journal.hpp"
#include "obs/obs.hpp"

namespace htd::obs {

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

std::vector<double> column(const linalg::Matrix& m, std::size_t c) {
    std::vector<double> out(m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r) out[r] = m(r, c);
    return out;
}

double mean_of(const std::vector<double>& xs) {
    double s = 0.0;
    for (const double x : xs) s += x;
    return xs.empty() ? 0.0 : s / static_cast<double>(xs.size());
}

double stddev_of(const std::vector<double>& xs, double mu) {
    if (xs.size() < 2) return 0.0;
    double s = 0.0;
    for (const double x : xs) s += (x - mu) * (x - mu);
    return std::sqrt(s / static_cast<double>(xs.size() - 1));
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

double kish_ess(std::span<const double> weights) noexcept {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const double w : weights) {
        sum += w;
        sum_sq += w * w;
    }
    if (sum_sq <= 0.0) return 0.0;
    return sum * sum / sum_sq;
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

// --- HealthMonitor -----------------------------------------------------------

HealthMonitor::HealthMonitor(HealthThresholds thresholds)
    : thresholds_(thresholds) {}

ProbeResult HealthMonitor::record(ProbeResult probe) {
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
    EventJournal& journal = EventJournal::global();
    if (journal.enabled() && stored.name.rfind("drift.", 0) == 0 &&
        stored.level >= HealthLevel::kDegraded) {
        Event ev("drift_trip");
        ev.detail = stored.name + ": " + stored.detail;
        for (const auto& [key, v] : stored.values) ev.value(key, v);
        journal.append(std::move(ev));
    }
    Registry& registry = Registry::global();
    registry.counter_add("health.probes_recorded");
    for (const auto& [key, v] : stored.values) {
        registry.gauge_set("health." + stored.name + "." + key, v);
    }
    registry.gauge_set("health." + stored.name + ".level",
                       static_cast<double>(stored.level));
    registry.gauge_set("health.verdict", static_cast<double>(verdict_now));
    return stored;
}

ProbeResult HealthMonitor::probe_kmm_weights(std::span<const double> weights) const {
    ProbeResult probe;
    probe.name = "kmm_weights";
    const double n = static_cast<double>(weights.size());
    const double ess = kish_ess(weights);
    const double ess_fraction = n > 0.0 ? ess / n : 0.0;
    double sum = 0.0;
    double max_w = 0.0;
    for (const double w : weights) {
        sum += std::max(0.0, w);
        max_w = std::max(max_w, w);
    }
    const double max_share = sum > 0.0 ? max_w / sum : 0.0;
    const double entropy = weight_entropy_ratio(weights);
    probe.value("weights", n)
        .value("effective_sample_size", ess)
        .value("ess_fraction", ess_fraction)
        .value("max_weight_share", max_share)
        .value("entropy_ratio", entropy);

    const HealthThresholds& t = thresholds_;
    if (weights.empty() || sum <= 0.0) {
        probe.escalate(HealthLevel::kCritical, "empty or all-zero weight vector");
        return probe;
    }
    if (ess_fraction < t.kmm_ess_fraction_critical) {
        probe.escalate(HealthLevel::kCritical,
                       "Kish ESS fraction " + std::to_string(ess_fraction) +
                           " below critical floor " +
                           std::to_string(t.kmm_ess_fraction_critical));
    } else if (ess_fraction < t.kmm_ess_fraction_warn) {
        probe.escalate(HealthLevel::kWarn,
                       "Kish ESS fraction " + std::to_string(ess_fraction) +
                           " below " + std::to_string(t.kmm_ess_fraction_warn));
    }
    if (max_share > t.kmm_max_weight_share_critical) {
        probe.escalate(HealthLevel::kCritical,
                       "one weight carries " + std::to_string(max_share) +
                           " of the total mass");
    } else if (max_share > t.kmm_max_weight_share_warn) {
        probe.escalate(HealthLevel::kWarn,
                       "max weight share " + std::to_string(max_share) + " above " +
                           std::to_string(t.kmm_max_weight_share_warn));
    }
    if (entropy < t.kmm_entropy_ratio_warn) {
        probe.escalate(HealthLevel::kWarn,
                       "weight entropy ratio " + std::to_string(entropy) +
                           " below " + std::to_string(t.kmm_entropy_ratio_warn));
    }
    return probe;
}

ProbeResult HealthMonitor::probe_drift(std::string_view name,
                                       const linalg::Matrix& reference,
                                       const linalg::Matrix& incoming) const {
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
        const std::vector<double> ref = column(reference, c);
        const std::vector<double> inc = column(incoming, c);
        const double d = ks_statistic(ref, inc);
        const double scaled = scaled_ks_statistic(d, ref.size(), inc.size());
        const double mu_ref = mean_of(ref);
        const double sigma_ref = stddev_of(ref, mu_ref);
        const double shift_sigma =
            std::abs(mean_of(inc) - mu_ref) / std::max(sigma_ref, kTiny);
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

    const HealthThresholds& t = thresholds_;
    if (max_scaled > t.drift_scaled_ks_critical) {
        probe.escalate(HealthLevel::kCritical,
                       "per-channel scaled KS " + std::to_string(max_scaled) +
                           " above " + std::to_string(t.drift_scaled_ks_critical));
    } else if (max_scaled > t.drift_scaled_ks_degraded) {
        probe.escalate(HealthLevel::kDegraded,
                       "per-channel scaled KS " + std::to_string(max_scaled) +
                           " above " + std::to_string(t.drift_scaled_ks_degraded));
    } else if (max_scaled > t.drift_scaled_ks_warn) {
        probe.escalate(HealthLevel::kWarn,
                       "per-channel scaled KS " + std::to_string(max_scaled) +
                           " above " + std::to_string(t.drift_scaled_ks_warn));
    }
    if (coefficient > t.drift_energy_coefficient_critical) {
        probe.escalate(HealthLevel::kCritical,
                       "energy coefficient " + std::to_string(coefficient) +
                           " above " +
                           std::to_string(t.drift_energy_coefficient_critical));
    } else if (coefficient > t.drift_energy_coefficient_warn) {
        probe.escalate(HealthLevel::kWarn,
                       "energy coefficient " + std::to_string(coefficient) +
                           " above " +
                           std::to_string(t.drift_energy_coefficient_warn));
    }
    return probe;
}

ProbeResult HealthMonitor::probe_kde(std::string_view name,
                                     const linalg::Matrix& source,
                                     const linalg::Matrix& synthetic,
                                     double bandwidth) const {
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

    const HealthThresholds& t = thresholds_;
    if (tail_mass > t.kde_tail_mass_critical) {
        probe.escalate(HealthLevel::kCritical,
                       "mean per-axis tail mass " + std::to_string(tail_mass) +
                           " above " + std::to_string(t.kde_tail_mass_critical));
    } else if (tail_mass > t.kde_tail_mass_warn) {
        probe.escalate(HealthLevel::kWarn,
                       "mean per-axis tail mass " + std::to_string(tail_mass) +
                           " above " + std::to_string(t.kde_tail_mass_warn));
    }
    if (max_expansion > t.kde_range_expansion_critical) {
        probe.escalate(HealthLevel::kCritical,
                       "synthetic range expansion " + std::to_string(max_expansion) +
                           "x above " +
                           std::to_string(t.kde_range_expansion_critical) + "x");
    } else if (max_expansion > t.kde_range_expansion_warn) {
        probe.escalate(HealthLevel::kWarn,
                       "synthetic range expansion " + std::to_string(max_expansion) +
                           "x above " + std::to_string(t.kde_range_expansion_warn) +
                           "x");
    }
    return probe;
}

ProbeResult HealthMonitor::probe_mars_fit(std::span<const double> per_output_r2,
                                          const linalg::Matrix& abs_residuals) const {
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

    std::vector<double> pooled;
    pooled.reserve(abs_residuals.rows() * abs_residuals.cols());
    for (std::size_t r = 0; r < abs_residuals.rows(); ++r) {
        for (std::size_t c = 0; c < abs_residuals.cols(); ++c) {
            pooled.push_back(std::abs(abs_residuals(r, c)));
        }
    }
    std::sort(pooled.begin(), pooled.end());
    probe.value("outputs", static_cast<double>(per_output_r2.size()))
        .value("mean_r2", mean_r2)
        .value("min_r2", min_r2)
        .value("residual_q50", quantile_sorted(pooled, 0.50))
        .value("residual_q90", quantile_sorted(pooled, 0.90))
        .value("residual_q99", quantile_sorted(pooled, 0.99));

    const HealthThresholds& t = thresholds_;
    if (mean_r2 < t.mars_r2_critical) {
        probe.escalate(HealthLevel::kCritical,
                       "mean training R^2 " + std::to_string(mean_r2) + " below " +
                           std::to_string(t.mars_r2_critical));
    } else if (mean_r2 < t.mars_r2_warn) {
        probe.escalate(HealthLevel::kWarn,
                       "mean training R^2 " + std::to_string(mean_r2) + " below " +
                           std::to_string(t.mars_r2_warn));
    }
    return probe;
}

ProbeResult HealthMonitor::probe_regression_residuals(
    const linalg::Matrix& train_abs_residuals,
    const linalg::Matrix& incoming_abs_residuals) const {
    ProbeResult probe;
    probe.name = "regression_residuals";
    if (train_abs_residuals.rows() == 0 || incoming_abs_residuals.rows() == 0 ||
        train_abs_residuals.cols() != incoming_abs_residuals.cols()) {
        probe.escalate(HealthLevel::kCritical,
                       "degenerate residual inputs (empty set or output mismatch)");
        return probe;
    }

    const auto pooled_quantiles = [](const linalg::Matrix& m) {
        std::vector<double> pooled;
        pooled.reserve(m.rows() * m.cols());
        for (std::size_t r = 0; r < m.rows(); ++r) {
            for (std::size_t c = 0; c < m.cols(); ++c) {
                pooled.push_back(std::abs(m(r, c)));
            }
        }
        std::sort(pooled.begin(), pooled.end());
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
        std::vector<double> train_col = column(train_abs_residuals, c);
        std::vector<double> incoming_col = column(incoming_abs_residuals, c);
        for (double& v : train_col) v = std::abs(v);
        for (double& v : incoming_col) v = std::abs(v);
        std::sort(train_col.begin(), train_col.end());
        std::sort(incoming_col.begin(), incoming_col.end());
        max_output_ratio = std::max(
            max_output_ratio, ratio(quantile_sorted(incoming_col, 0.90),
                                    quantile_sorted(train_col, 0.90)));
    }

    probe.value("incoming_devices", static_cast<double>(incoming_abs_residuals.rows()))
        .value("train_q50", train_q[0])
        .value("train_q90", train_q[1])
        .value("train_q99", train_q[2])
        .value("incoming_q50", incoming_q[0])
        .value("incoming_q90", incoming_q[1])
        .value("incoming_q99", incoming_q[2])
        .value("q50_ratio", ratio(incoming_q[0], train_q[0]))
        .value("q90_ratio", ratio(incoming_q[1], train_q[1]))
        .value("q99_ratio", ratio(incoming_q[2], train_q[2]))
        .value("max_output_q90_ratio", max_output_ratio);

    const HealthThresholds& t = thresholds_;
    const double q90_ratio = ratio(incoming_q[1], train_q[1]);
    if (q90_ratio > t.residual_q90_ratio_critical) {
        probe.escalate(HealthLevel::kCritical,
                       "incoming residual q90 " + std::to_string(q90_ratio) +
                           "x the training q90 (above " +
                           std::to_string(t.residual_q90_ratio_critical) + "x)");
    } else if (q90_ratio > t.residual_q90_ratio_warn) {
        probe.escalate(HealthLevel::kWarn,
                       "incoming residual q90 " + std::to_string(q90_ratio) +
                           "x the training q90 (above " +
                           std::to_string(t.residual_q90_ratio_warn) + "x)");
    }
    return probe;
}

ProbeResult HealthMonitor::probe_svm_margins(std::string_view name,
                                             std::span<const double> train_decision_values,
                                             double nu, std::size_t support_vectors,
                                             std::size_t trained_samples) const {
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

    const HealthThresholds& t = thresholds_;
    if (sv_fraction > t.svm_sv_fraction_critical) {
        probe.escalate(HealthLevel::kCritical,
                       "support-vector fraction " + std::to_string(sv_fraction) +
                           " above " + std::to_string(t.svm_sv_fraction_critical));
    } else if (sv_fraction > t.svm_sv_fraction_warn) {
        probe.escalate(HealthLevel::kWarn,
                       "support-vector fraction " + std::to_string(sv_fraction) +
                           " above " + std::to_string(t.svm_sv_fraction_warn));
    }
    if (outlier_excess > t.svm_outlier_excess_critical) {
        probe.escalate(HealthLevel::kCritical,
                       std::to_string(outside_fraction) +
                           " of training points left outside vs nu " +
                           std::to_string(nu));
    } else if (outlier_excess > t.svm_outlier_excess_warn) {
        probe.escalate(HealthLevel::kWarn,
                       std::to_string(outside_fraction) +
                           " of training points left outside vs nu " +
                           std::to_string(nu));
    }
    return probe;
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

}  // namespace htd::obs
