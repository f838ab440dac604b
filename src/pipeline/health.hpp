#pragma once
/// \file health.hpp
/// Statistical health probes for the detection pipeline.
///
/// Spans and work counters observe *mechanics* (latency, work); these probes
/// observe whether the distributional machinery the paper's trust argument
/// rests on is actually healthy: are the KMM importance weights spread over
/// the Monte Carlo population or collapsed onto a handful of points, is the
/// 1-class SVM boundary hugging its training cloud, did any boundary fail or
/// fall back, and — the drift detector — does the incoming DUTT PCM batch
/// still look like the KMM-calibrated reference distribution.
///
/// Each check is a *probe*: a named bundle of scalar statistics plus a
/// WARN / DEGRADED / CRITICAL level. This module owns every probe's
/// thresholds (named constants in health.cpp beside the probe that reads
/// them; DESIGN.md §10 lists the bands). Probes are recorded into a
/// `HealthMonitor`, which keeps the worst level as the run verdict and
/// serializes the whole set as the "health" section of a run report — the
/// one place a health statistic is recorded.

#include <array>
#include <cstddef>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/json.hpp"
#include "linalg/matrix.hpp"

namespace htd::core {

struct BoundaryStatus;  // pipeline.hpp

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
/// unknown name (used when reading a run report back).
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

/// Shannon entropy of the normalized weights divided by log(n): 1 for
/// uniform weights, -> 0 as one weight dominates. 0 for n < 2 or an
/// all-zero vector.
[[nodiscard]] double weight_entropy_ratio(std::span<const double> weights) noexcept;

// --- probes -----------------------------------------------------------------

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

// Probe builders: pure functions of their inputs.

/// "kmm_weights": Kish ESS (absolute and as a fraction of n), max-weight
/// share, entropy ratio of the KMM importance weights.
[[nodiscard]] ProbeResult probe_kmm_weights(const linalg::Vector& weights);

/// Drift of an incoming batch against a reference population:
/// per-channel KS statistic (raw and size-normalized), per-channel mean
/// shift in reference-sigma units, energy distance / coefficient.
[[nodiscard]] ProbeResult probe_drift(std::string_view name,
                                      const linalg::Matrix& reference,
                                      const linalg::Matrix& incoming);

/// 1-class SVM boundary shape: support-vector fraction, training
/// decision-value quantiles, fraction of training points left outside
/// relative to nu.
[[nodiscard]] ProbeResult probe_svm_margins(std::string_view name,
                                            std::span<const double> train_decision_values,
                                            double nu, std::size_t support_vectors,
                                            std::size_t trained_samples);

/// "boundaries": folds the per-boundary status (indexed B1..B5) into the
/// verdict: any failed boundary -> CRITICAL, any degraded -> DEGRADED.
[[nodiscard]] ProbeResult probe_boundaries(const std::array<BoundaryStatus, 5>& status);

/// Collects probes for one pipeline run and aggregates the run verdict
/// (worst probe level).
///
/// Thread-safe: the recorded probe set is guarded by a mutex, so callers
/// may record probes from several threads. Accessors therefore return
/// snapshots by value, never references into the guarded state.
class HealthMonitor {
public:
    /// Record a probe (a later probe with the same name replaces the
    /// earlier one — stages re-run). A `drift.*` probe at DEGRADED or worse
    /// also appends a `drift_trip` event to the global EventJournal.
    void record(ProbeResult probe);

    /// Worst level over the recorded probes (kHealthy when none).
    [[nodiscard]] HealthLevel verdict() const;

    /// Snapshot of the recorded probes in first-recorded order.
    [[nodiscard]] std::vector<ProbeResult> probes() const;

    /// The probe with that name, or std::nullopt.
    [[nodiscard]] std::optional<ProbeResult> find(std::string_view name) const;

    /// The run report's "health" section:
    /// {"verdict": ..., "probes": [...]}.
    [[nodiscard]] io::Json to_json() const;

    /// Drop all recorded probes.
    void clear();

private:
    [[nodiscard]] HealthLevel verdict_locked() const;

    mutable std::mutex mutex_;  // guards every member below
    std::vector<ProbeResult> probes_;
};

}  // namespace htd::core
