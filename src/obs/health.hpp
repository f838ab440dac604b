#pragma once
/// \file health.hpp
/// Statistical health monitoring for the detection pipeline (htd::obs v2).
///
/// PR 1 observes *mechanics* (latency, counters); this layer observes
/// whether the distributional machinery the paper's trust argument rests on
/// is actually healthy: are the KMM importance weights spread over the Monte
/// Carlo population or collapsed onto a handful of points, did the KDE tail
/// enhancement expand the population sanely, do the MARS regressions still
/// fit the incoming devices, is the 1-class SVM boundary hugging its
/// training cloud, and — the drift detector — does the incoming DUTT PCM
/// batch still look like the KMM-calibrated reference distribution.
///
/// Each check is a *probe*: a named bundle of scalar statistics plus a
/// WARN / DEGRADED / CRITICAL level derived from configurable thresholds.
/// Probes are recorded into a `HealthMonitor`, which mirrors every statistic
/// as a `health.<probe>.<stat>` gauge in the global `Registry`, keeps the
/// worst level as the run verdict, and serializes the whole set as the
/// "health" section of a `htd.run_report.v2` document.
///
/// The two-sample statistics (Kolmogorov–Smirnov, energy distance) are
/// implemented here rather than in htd::stats so that htd_obs keeps its
/// dependency footprint (io + linalg only) and the stats layer can keep
/// depending on obs for spans.

#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/json.hpp"
#include "linalg/matrix.hpp"

namespace htd::obs {

/// Probe / run verdict severity, ordered: later values are worse.
enum class HealthLevel {
    kHealthy = 0,   ///< statistic inside its expected band
    kWarn = 1,      ///< drifting; detection quality not yet at risk
    kDegraded = 2,  ///< operating on a fallback / visibly shifted regime
    kCritical = 3,  ///< the statistical assumptions are broken
};

/// "healthy" / "warn" / "degraded" / "critical".
[[nodiscard]] std::string health_level_name(HealthLevel level);

/// Inverse of health_level_name; throws std::invalid_argument on an
/// unknown name (used when reading a run_report.v2 back).
[[nodiscard]] HealthLevel health_level_from_name(std::string_view name);

/// The worse (more severe) of two levels.
[[nodiscard]] constexpr HealthLevel worse(HealthLevel a, HealthLevel b) noexcept {
    return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

// --- two-sample statistics (exposed for tests and tooling) ------------------

/// Two-sample Kolmogorov–Smirnov statistic D = sup_x |F_a(x) - F_b(x)|.
/// Inputs are samples (copied and sorted internally). Throws
/// std::invalid_argument when either sample is empty.
[[nodiscard]] double ks_statistic(std::span<const double> a,
                                  std::span<const double> b);

/// Size-normalized KS statistic D / sqrt((n + m) / (n m)) — the quantity
/// compared against the Kolmogorov distribution. Under H0 values near or
/// below ~1.36 (p = 0.05) are unremarkable; 1.95 is p ~ 0.001.
[[nodiscard]] double scaled_ks_statistic(double d, std::size_t n, std::size_t m);

/// Energy distance E(A, B) = 2 E|X-Y| - E|X-X'| - E|Y-Y'| with Euclidean
/// norms over the rows of `a` and `b`. Nonnegative, zero iff the
/// distributions agree. Throws on empty input or column mismatch.
[[nodiscard]] double energy_distance(const linalg::Matrix& a,
                                     const linalg::Matrix& b);

/// Normalized energy coefficient E(A, B) / (2 E|X-Y|) in [0, 1]; a scale
/// free companion to energy_distance. 0 when either term degenerates.
[[nodiscard]] double energy_coefficient(const linalg::Matrix& a,
                                        const linalg::Matrix& b);

/// Kish effective sample size (sum w)^2 / sum w^2 of a nonnegative weight
/// vector; 0 for empty / all-zero input.
[[nodiscard]] double kish_ess(std::span<const double> weights) noexcept;

/// Shannon entropy of the normalized weights divided by log(n): 1 for
/// uniform weights, -> 0 as one weight dominates. 0 for n < 2 or an
/// all-zero vector.
[[nodiscard]] double weight_entropy_ratio(std::span<const double> weights) noexcept;

// --- probes -----------------------------------------------------------------

/// Thresholds behind every probe level. Defaults are calibrated against the
/// paper-default pipeline (quickstart / bench_table1 stay all-healthy) with
/// headroom; tighten them per deployment through
/// `core::PipelineConfig::health`.
struct HealthThresholds {
    // KMM importance weights (probe "kmm_weights").
    double kmm_ess_fraction_warn = 0.15;      ///< Kish ESS / n below -> WARN
    double kmm_ess_fraction_critical = 0.05;  ///< below -> CRITICAL
    double kmm_max_weight_share_warn = 0.30;  ///< max w / sum w above -> WARN
    double kmm_max_weight_share_critical = 0.60;
    double kmm_entropy_ratio_warn = 0.50;     ///< entropy ratio below -> WARN

    // Two-sample drift (probe "drift.*"): levels keyed on the
    // size-normalized KS statistic per channel and the energy coefficient.
    double drift_scaled_ks_warn = 1.63;      ///< ~p = 0.01 under H0
    double drift_scaled_ks_degraded = 1.95;  ///< ~p = 0.001
    double drift_scaled_ks_critical = 2.80;
    double drift_energy_coefficient_warn = 0.15;
    double drift_energy_coefficient_critical = 0.35;

    // MARS regression fit (probes "mars_fit", "regression_residuals").
    double mars_r2_warn = 0.50;      ///< mean training R^2 below -> WARN
    double mars_r2_critical = 0.20;  ///< below -> CRITICAL
    /// Incoming |residual| q90 relative to the training q90. The incoming
    /// population legitimately contains Trojans and sits at the shifted
    /// foundry operating point, so the default band is generous.
    double residual_q90_ratio_warn = 8.0;
    double residual_q90_ratio_critical = 25.0;

    // 1-class SVM boundary (probes "svm.B1".."svm.B5").
    double svm_sv_fraction_warn = 0.75;  ///< SVs / trained samples above -> WARN
    double svm_sv_fraction_critical = 0.95;
    /// Fraction of training points outside the boundary relative to nu
    /// (SMO should leave ~nu outside; a large excess means it failed).
    double svm_outlier_excess_warn = 3.0;
    double svm_outlier_excess_critical = 6.0;

    // KDE tail enhancement (probes "kde.s2", "kde.s5").
    /// Mean per-axis fraction of synthetic samples outside the source
    /// population's [min, max] range. Tail *enhancement* is the point, so
    /// only runaway expansion alarms.
    double kde_tail_mass_warn = 0.25;
    double kde_tail_mass_critical = 0.50;
    /// Max per-axis (synthetic range / source range) above -> WARN.
    double kde_range_expansion_warn = 3.0;
    double kde_range_expansion_critical = 6.0;

    // Calibration staleness (probe "calibration"): how far, in units of
    // the reference population's RMS column spread, the kernel mean shift
    // had to translate the simulated cloud to reach the silicon operating
    // point. The paper-default 4.5 sigma foundry process shift lands near
    // 4.4 (measured on the E15 harness), so the band starts at roughly 2x
    // the designed operating point.
    double calibration_shift_warn = 8.0;
    double calibration_shift_critical = 16.0;
};

/// One recorded health probe: a named set of scalar statistics with the
/// level they imply and a human-readable reason when not healthy.
struct ProbeResult {
    std::string name;  ///< e.g. "kmm_weights", "drift.pcm", "svm.B4"
    HealthLevel level = HealthLevel::kHealthy;
    std::string detail;  ///< empty when healthy
    /// Scalar statistics in insertion order (serialized as an object).
    std::vector<std::pair<std::string, double>> values;

    /// Append one statistic.
    ProbeResult& value(std::string key, double v) {
        values.emplace_back(std::move(key), v);
        return *this;
    }

    /// Escalate to `at_least` (never lowers) and append the reason.
    void escalate(HealthLevel at_least, const std::string& reason);

    /// {"name", "level", "detail", "values": {...}}.
    [[nodiscard]] io::Json to_json() const;
};

/// Collects probes for one pipeline run, mirrors their statistics as
/// `health.*` gauges, and aggregates the run verdict (worst probe level).
/// Probe builders are const and pure; only record() / clear() mutate state.
///
/// Thread-safe: the recorded probe set is guarded by a mutex, so callers
/// may record probes from several threads. Accessors therefore return
/// snapshots by value, never references into the guarded state.
class HealthMonitor {
public:
    explicit HealthMonitor(HealthThresholds thresholds = {});

    [[nodiscard]] const HealthThresholds& thresholds() const noexcept {
        return thresholds_;  // immutable after construction; no lock needed
    }

    /// Record a probe (a later probe with the same name replaces the
    /// earlier one — stages re-run). Publishes `health.<name>.<stat>` and
    /// `health.<name>.level` gauges plus the `health.verdict` gauge.
    /// Returns a copy of the stored probe.
    ProbeResult record(ProbeResult probe);

    /// KMM importance-weight diagnostics: Kish ESS (absolute and as a
    /// fraction of n), max-weight share, entropy ratio.
    [[nodiscard]] ProbeResult probe_kmm_weights(std::span<const double> weights) const;

    /// Drift of an incoming batch against a reference population:
    /// per-channel KS statistic (raw and size-normalized), per-channel mean
    /// shift in reference-sigma units, energy distance / coefficient.
    [[nodiscard]] ProbeResult probe_drift(std::string_view name,
                                          const linalg::Matrix& reference,
                                          const linalg::Matrix& incoming) const;

    /// KDE tail-enhancement sanity: bandwidth, out-of-source-range tail
    /// mass and range expansion of the synthetic population.
    [[nodiscard]] ProbeResult probe_kde(std::string_view name,
                                        const linalg::Matrix& source,
                                        const linalg::Matrix& synthetic,
                                        double bandwidth) const;

    /// MARS training fit: mean R^2 across the bank plus |residual|
    /// quantiles (q50 / q90 / q99) pooled over outputs.
    [[nodiscard]] ProbeResult probe_mars_fit(
        std::span<const double> per_output_r2,
        const linalg::Matrix& abs_residuals) const;

    /// Incoming regression residuals against the training residuals:
    /// per-quantile ratios (the model-staleness signal of LASCA-style
    /// golden-free detectors).
    [[nodiscard]] ProbeResult probe_regression_residuals(
        const linalg::Matrix& train_abs_residuals,
        const linalg::Matrix& incoming_abs_residuals) const;

    /// 1-class SVM boundary shape: support-vector fraction, training
    /// decision-value quantiles, fraction of training points left outside
    /// relative to nu.
    [[nodiscard]] ProbeResult probe_svm_margins(
        std::string_view name, std::span<const double> train_decision_values,
        double nu, std::size_t support_vectors, std::size_t trained_samples) const;

    /// Worst level over the recorded probes (kHealthy when none).
    [[nodiscard]] HealthLevel verdict() const;

    /// Snapshot of the recorded probes in first-recorded order.
    [[nodiscard]] std::vector<ProbeResult> probes() const;

    /// The probe with that name, or std::nullopt.
    [[nodiscard]] std::optional<ProbeResult> find(std::string_view name) const;

    /// The run_report.v2 "health" section:
    /// {"verdict": ..., "probes": [...]}.
    [[nodiscard]] io::Json to_json() const;

    /// Drop all recorded probes (thresholds are kept).
    void clear();

private:
    [[nodiscard]] HealthLevel verdict_locked() const;

    HealthThresholds thresholds_{};
    mutable std::mutex mutex_;  // guards every member below
    std::vector<ProbeResult> probes_;
};

}  // namespace htd::obs
