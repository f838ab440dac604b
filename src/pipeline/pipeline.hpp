#pragma once
/// \file pipeline.hpp
/// The paper's contribution: learning a trusted side-channel region without
/// golden chips. The pipeline has three stages (Section 2):
///
/// 1. *Pre-manufacturing* — Monte Carlo "Spice" simulation of n golden
///    devices gives PCM vectors and fingerprints. A bank of MARS regressions
///    g_j : m_p -> m_j is trained, the raw simulated fingerprints form S1
///    (boundary B1), and adaptive-KDE tail enhancement of S1 forms S2
///    (boundary B2).
/// 2. *Silicon measurement* — PCMs measured on the DUTTs are pushed through
///    g to predict golden fingerprints S3 (boundary B3); kernel-mean-shift
///    calibration of the simulated PCMs onto the measured ones, followed by
///    g, yields S4 (boundary B4); KDE enhancement of S4 yields S5 (B5).
/// 3. *Trojan test* — each boundary is a 1-class SVM; a DUTT whose measured
///    fingerprint falls inside is declared Trojan-free.

#include <array>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/errors.hpp"
#include "io/json.hpp"
#include "linalg/matrix.hpp"
#include "ml/kmm.hpp"
#include "ml/mars.hpp"
#include "ml/metrics.hpp"
#include "ml/one_class_svm.hpp"
#include "obs/obs.hpp"
#include "pipeline/health.hpp"
#include "rng/rng.hpp"
#include "silicon/bench_measure.hpp"
#include "stats/kde.hpp"

namespace htd::core {

/// The five trusted-region constructions of the paper.
enum class Boundary {
    kB1,  ///< raw Monte Carlo fingerprints (S1)
    kB2,  ///< KDE tail-enhanced Monte Carlo fingerprints (S2)
    kB3,  ///< fingerprints predicted from measured DUTT PCMs (S3)
    kB4,  ///< fingerprints predicted from KMM-calibrated simulated PCMs (S4)
    kB5,  ///< KDE tail-enhanced version of S4 (S5)
};

/// All boundaries in pipeline order.
inline constexpr std::array<Boundary, 5> kAllBoundaries = {
    Boundary::kB1, Boundary::kB2, Boundary::kB3, Boundary::kB4, Boundary::kB5};

/// "B1".."B5".
[[nodiscard]] std::string boundary_name(Boundary b);

/// "S1".."S5" — the dataset each boundary is trained on.
[[nodiscard]] std::string dataset_name(Boundary b);

/// Health of one trained boundary. The pipeline degrades gracefully: a
/// boundary whose training fails or whose inputs collapse is marked here
/// instead of poisoning the others, and classify/evaluate keep working on
/// every boundary that stays kHealthy or kDegraded.
enum class BoundaryHealth {
    kUntrained,  ///< its stage has not run (or ran before this boundary)
    kHealthy,    ///< trained as designed
    kDegraded,   ///< trained on fallback data (e.g. B4 on S3 after a KMM collapse)
    kFailed,     ///< training threw; the boundary is unavailable
};

/// "untrained" / "healthy" / "degraded" / "failed".
[[nodiscard]] std::string boundary_health_name(BoundaryHealth health);

/// Health plus the human-readable reason for a degradation or failure.
struct BoundaryStatus {
    BoundaryHealth health = BoundaryHealth::kUntrained;
    std::string detail;

    [[nodiscard]] bool usable() const noexcept {
        return health == BoundaryHealth::kHealthy ||
               health == BoundaryHealth::kDegraded;
    }
};

/// Tuning knobs of the detection pipeline.
struct PipelineConfig {
    /// Monte Carlo golden devices n (the paper uses 100).
    std::size_t monte_carlo_samples = 100;

    /// Tail-enhanced synthetic population size M' (the paper uses 1e5).
    std::size_t synthetic_samples = 100000;

    /// Adaptive-KDE locality parameter alpha, bandwidth (0 = Silverman),
    /// and clamp on the local bandwidth factors of Eq. (8).
    double kde_alpha = 0.5;
    double kde_bandwidth = 0.5;
    double kde_max_lambda = 2.5;
    stats::KernelType kde_kernel = stats::KernelType::kEpanechnikov;

    /// Regress fingerprints against log(PCM) instead of raw PCM values.
    /// Transmit power in dB is log-linear in the drive parameters, and so is
    /// log(delay), so the log transform makes the PCM->fingerprint relation
    /// near-linear and keeps the MARS extrapolation to the (shifted) silicon
    /// operating point well behaved. Requires strictly positive PCMs.
    bool log_transform_pcm = true;

    /// MARS regression options for the PCM -> fingerprint bank. The term
    /// budget is kept small so the six per-fingerprint models extrapolate
    /// consistently to the (shifted) silicon operating point.
    ml::Mars::Options mars{.max_terms = 7, .max_knots_per_variable = 7};

    /// 1-class SVM options shared by every boundary.
    ml::OneClassSvm::Options svm{.nu = 0.08, .gamma_scale = 1.0};

    /// KMM / kernel-mean-shift calibration options. The weight bound is kept
    /// small so the importance-resampled PCM population m''_p keeps a healthy
    /// effective sample size instead of collapsing onto a handful of
    /// training points.
    ml::KernelMeanShiftCalibrator::Options calibration{
        .kmm = {.weight_bound = 5.0, .gamma = 8.0}};

    /// Kish effective-sample-size floor for the KMM calibration weights.
    /// Below it the calibration has collapsed onto a handful of Monte Carlo
    /// points and boundary B4 would train on effectively no data.
    double kmm_min_effective_sample_size = 4.0;

    /// On a KMM collapse, train B4/B5 on S3 (the fingerprints predicted
    /// from the measured PCMs) instead of throwing CalibrationCollapseError.
    /// The fallback is recorded in the boundary status and observability.
    bool kmm_fallback_to_b3 = true;

    /// Observability sink selection, applied to the global obs registry when
    /// the pipeline is constructed. The default (kInherit) leaves whatever
    /// the process / HTD_OBS environment variable configured.
    obs::Config obs{};
};

/// Stage-3 input screen shared by every scoring path (the pipeline, the
/// scorer and explain): throws DimensionError unless `fingerprints` has the
/// `trained_dim` columns boundary `b` was calibrated on, and
/// DataQualityError on any non-finite value. `caller` prefixes the messages.
void screen_fingerprints(std::string_view caller, Boundary b,
                         std::size_t trained_dim,
                         const linalg::Matrix& fingerprints);

/// Stage-3 verdicts shared by GoldenFreePipeline and BoundaryScorer:
/// screens `fingerprints`, then tests every row against `svm` (true =
/// inside the trusted region) in a `score.classify` span. Each row costs
/// one decision evaluation, which is also journaled as a `chip_scored`
/// event while the event journal is enabled. Adds the row count to the
/// `work.score.devices` counter.
[[nodiscard]] std::vector<bool> score_fingerprints(Boundary b,
                                                   const ml::OneClassSvm& svm,
                                                   std::size_t trained_dim,
                                                   const linalg::Matrix& fingerprints);

/// The golden chip-free detection pipeline.
class GoldenFreePipeline {
public:
    /// `simulator` wraps the trusted (but possibly stale) process model and
    /// the platform's circuit models. Throws ConfigError on a degenerate
    /// configuration.
    GoldenFreePipeline(PipelineConfig config, silicon::SpiceSimulator simulator);

    /// Stage 1. Runs the Monte Carlo, fits the MARS bank, and trains B1/B2.
    /// Must be called before any other stage. A per-boundary training
    /// failure marks that boundary kFailed instead of aborting the stage.
    void run_premanufacturing(rng::Rng& rng);

    /// Stage 2. Consumes the PCM measurements of the DUTTs (rows = devices)
    /// and trains B3/B4/B5. Throws StageOrderError when stage 1 has not
    /// run, DimensionError on a PCM dimension mismatch, DataQualityError on
    /// empty or non-finite input. A collapsed KMM calibration either falls
    /// back to training B4/B5 on S3 (kmm_fallback_to_b3, boundary marked
    /// kDegraded) or throws CalibrationCollapseError — in which case B3
    /// stays usable. Other per-boundary failures mark that boundary kFailed
    /// and the rest keep working.
    void run_silicon_stage(const linalg::Matrix& dutt_pcms, rng::Rng& rng);

    /// Stage 3. Classify measured fingerprints against one boundary:
    /// true = inside the trusted region (Trojan-free verdict). Throws
    /// BoundaryUnavailableError when the boundary is not usable,
    /// DimensionError on a fingerprint-width mismatch, and
    /// DataQualityError on non-finite fingerprints.
    [[nodiscard]] std::vector<bool> classify(Boundary b,
                                             const linalg::Matrix& fingerprints) const;

    /// Decision values (positive = inside) for diagnostics.
    [[nodiscard]] linalg::Vector decision_values(
        Boundary b, const linalg::Matrix& fingerprints) const;

    /// Convenience: classify + score a measured DUTT population.
    [[nodiscard]] ml::DetectionMetrics evaluate(Boundary b,
                                                const silicon::DuttDataset& dutts) const;

    /// The training dataset Sk behind a boundary (throws
    /// BoundaryUnavailableError if not built yet).
    [[nodiscard]] const linalg::Matrix& dataset(Boundary b) const;

    /// The fitted regression bank g (throws StageOrderError if stage 1 has
    /// not run).
    [[nodiscard]] const ml::MarsBank& regressions() const;

    /// The simulated golden PCM matrix from stage 1.
    [[nodiscard]] const linalg::Matrix& simulated_pcms() const;

    /// Calibration diagnostics from stage 2 (empty before it runs).
    [[nodiscard]] const std::optional<ml::KernelMeanShiftCalibrator::Result>&
    calibration_result() const noexcept {
        return calibration_;
    }

    [[nodiscard]] const PipelineConfig& config() const noexcept { return config_; }

    /// True once the given boundary has been trained and is usable
    /// (healthy or degraded).
    [[nodiscard]] bool boundary_ready(Boundary b) const noexcept;

    /// Health + detail of one boundary (degradation / failure reasons).
    [[nodiscard]] const BoundaryStatus& boundary_status(Boundary b) const noexcept {
        return status_[static_cast<std::size_t>(b)];
    }

    /// True when stage 2 trained B4/B5 on S3 after a KMM collapse.
    [[nodiscard]] bool kmm_fallback_applied() const noexcept {
        return kmm_fallback_applied_;
    }

    /// Kish effective sample size of the final KMM weights (NaN before
    /// stage 2 ran).
    [[nodiscard]] double kmm_effective_sample_size() const noexcept {
        return kmm_ess_;
    }

    /// JSON array of per-boundary {boundary, health, detail} records — the
    /// degradation section of a RunReport.
    [[nodiscard]] io::Json degradation_report() const;

    /// Statistical health probes recorded so far (cleared when stage 1
    /// re-runs; stage re-runs replace same-name probes). Serialized as the
    /// "health" section of a run_report.v2 by core::pipeline_run_report.
    [[nodiscard]] const HealthMonitor& health() const noexcept {
        return health_;
    }

    /// Record the incoming-population probes for a measured DUTT batch:
    /// per-device |fingerprint - g(pcm)| residuals against the training
    /// residual distribution (the model-staleness signal). Throws
    /// StageOrderError before stage 1 ran, DimensionError on a PCM /
    /// fingerprint width mismatch.
    void probe_incoming(const silicon::DuttDataset& dutts) const;

    /// The trained 1-class SVM behind a boundary (throws
    /// BoundaryUnavailableError when it is not usable). Exposed for
    /// diagnostics and the observability RunReport (support-vector counts,
    /// effective gamma).
    [[nodiscard]] const ml::OneClassSvm& boundary_svm(Boundary b) const {
        return svm_for(b);
    }

    /// The adaptive-KDE estimator that generated a boundary's synthetic
    /// population. Engaged only for B2/B5; empty otherwise (stage not run,
    /// boundary failed).
    /// Persisted in the boundary artifact so a calibration can be audited
    /// and its synthetic populations regenerated without re-simulation.
    [[nodiscard]] const std::optional<stats::AdaptiveKde>& kde_estimator(
        Boundary b) const noexcept {
        return kdes_[static_cast<std::size_t>(b)];
    }

private:
    /// Build one boundary's dataset + SVM; a thrown std::exception marks
    /// the boundary kFailed (detail = what()) instead of propagating.
    template <typename BuildDataset>
    void build_boundary(Boundary b, BuildDataset&& build);
    [[nodiscard]] const ml::OneClassSvm& svm_for(Boundary b) const;
    [[nodiscard]] linalg::Matrix transform_pcms(const linalg::Matrix& pcms) const;
    [[nodiscard]] ml::OneClassSvm train_boundary(const linalg::Matrix& dataset) const;
    /// Build the synthetic tail-enhanced population for boundary `b` from
    /// `source`, record a `<probe_name>` health probe over it, and retain
    /// the fitted estimator in `kdes_` for artifact export.
    [[nodiscard]] linalg::Matrix kde_enhance(Boundary b,
                                             const linalg::Matrix& source,
                                             rng::Rng& rng,
                                             std::string_view probe_name);
    /// Record the `svm.<boundary>` margin probe for a freshly trained
    /// boundary (decision values over a strided sample of its dataset).
    void record_svm_probe(Boundary b) const;

    PipelineConfig config_;
    silicon::SpiceSimulator simulator_;

    bool premanufacturing_done_ = false;
    bool silicon_done_ = false;
    /// Completed stage runs, so the journal can distinguish a first
    /// `calibration` from a `recalibration` (a stage re-run on new data).
    std::size_t premanufacturing_runs_ = 0;
    std::size_t silicon_runs_ = 0;

    linalg::Matrix mc_pcms_;
    std::array<linalg::Matrix, 5> datasets_;
    std::array<ml::OneClassSvm, 5> boundaries_;
    /// Fitted tail estimators (B2/B5 only).
    std::array<std::optional<stats::AdaptiveKde>, 5> kdes_;
    std::array<BoundaryStatus, 5> status_{};
    ml::MarsBank regressions_;
    std::optional<ml::KernelMeanShiftCalibrator::Result> calibration_;
    bool kmm_fallback_applied_ = false;
    double kmm_ess_ = std::numeric_limits<double>::quiet_NaN();

    /// Per-run statistical health probes. Mutable: const observers
    /// (probe_incoming, record_svm_probe) record diagnostics without
    /// changing the detection state.
    mutable HealthMonitor health_;
    /// |fingerprint - g(pcm)| on the Monte Carlo training set — the
    /// reference distribution for the incoming residual probe.
    linalg::Matrix train_abs_residuals_;
};

/// The conventional golden-chip detector of Fig. 1 / [12]: a 1-class SVM
/// trained directly on measured fingerprints of trusted devices. Used as
/// the reference the golden-free pipeline is compared against.
class GoldenChipBaseline {
public:
    explicit GoldenChipBaseline(ml::OneClassSvm::Options svm_opts = {});

    /// Train on measured fingerprints of known Trojan-free devices.
    void fit(const linalg::Matrix& golden_fingerprints);

    /// True = inside the trusted region.
    [[nodiscard]] std::vector<bool> classify(const linalg::Matrix& fingerprints) const;

    /// Classify + score a measured population.
    [[nodiscard]] ml::DetectionMetrics evaluate(const silicon::DuttDataset& dutts) const;

    [[nodiscard]] const ml::OneClassSvm& svm() const noexcept { return svm_; }

private:
    ml::OneClassSvm svm_;
};

}  // namespace htd::core
