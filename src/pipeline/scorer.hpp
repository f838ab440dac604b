#pragma once
/// \file scorer.hpp
/// The score half of the calibrate/score split: classify measured
/// fingerprint batches against a persisted `BoundaryArtifact` with zero
/// retraining. Calibrate once on the trusted workstation, then fan the
/// artifact out to production testers and score millions of devices.
///
/// Contract: for the same artifact and inputs, `classify` and
/// `decision_values` are *bitwise identical* to the in-process
/// `GoldenFreePipeline` they were calibrated from — the SVM state is
/// persisted in the exact representation the decision function consumes,
/// and doubles round-trip exactly through the JSON layer.

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "ml/metrics.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/explain.hpp"
#include "pipeline/pipeline.hpp"
#include "silicon/bench_measure.hpp"

namespace htd::core {

/// Batch classifier over a loaded calibration artifact. Boundaries that
/// failed calibration or artifact validation stay unavailable (typed
/// BoundaryUnavailableError naming the reason); the survivors score as if
/// the original pipeline were still in memory.
class BoundaryScorer {
public:
    /// Takes ownership of the artifact (load it with BoundaryArtifact::load).
    explicit BoundaryScorer(BoundaryArtifact artifact);

    /// Classify measured fingerprints against one boundary: true = inside
    /// the trusted region (Trojan-free verdict). Throws
    /// BoundaryUnavailableError when the boundary is not usable,
    /// DimensionError on a fingerprint-width mismatch, DataQualityError on
    /// non-finite fingerprints.
    [[nodiscard]] std::vector<bool> classify(Boundary b,
                                             const linalg::Matrix& fingerprints) const;

    /// Decision values (positive = inside) for diagnostics; same error
    /// contract as classify.
    [[nodiscard]] linalg::Vector decision_values(
        Boundary b, const linalg::Matrix& fingerprints) const;

    /// Convenience: classify + score a measured DUTT population.
    [[nodiscard]] ml::DetectionMetrics evaluate(Boundary b,
                                                const silicon::DuttDataset& dutts) const;

    /// The boundary a production verdict comes from: the highest boundary
    /// (B5 down to B1) that survived calibration and loading; nullopt when
    /// none did.
    [[nodiscard]] std::optional<Boundary> verdict_boundary() const noexcept;

    /// Full htd.explain.v1 attribution for one chip (explain.hpp): per-
    /// boundary decision + margin, leave-one-channel-out contribution
    /// ranking with z-scores, k nearest calibration neighbours, and the S2/
    /// S5 KDE tail mass. Deterministic at fixed seed and bitwise-identical
    /// between an in-process artifact and its save/load round trip. Throws
    /// DimensionError / DataQualityError like classify. The first call
    /// builds the S2/S5 tail references (M calibration densities each,
    /// once per scorer, thread-safe); later calls evaluate one density per
    /// estimator.
    [[nodiscard]] ExplainRecord explain(const linalg::Vector& fingerprint,
                                        std::string chip,
                                        const ExplainOptions& opts = {}) const;

    /// True when the boundary survived calibration and loading.
    [[nodiscard]] bool boundary_ready(Boundary b) const noexcept {
        return artifact_.boundary_ready(b);
    }

    [[nodiscard]] const BoundaryStatus& boundary_status(Boundary b) const noexcept {
        return artifact_.boundary_status(b);
    }

    [[nodiscard]] const BoundaryArtifact& artifact() const noexcept {
        return artifact_;
    }

private:
    [[nodiscard]] const ml::OneClassSvm& svm_for(Boundary b) const;

    BoundaryArtifact artifact_;
    // Built by the first explain under tail_once_, read-only after.
    mutable std::once_flag tail_once_;
    mutable std::optional<KdeTailReference> tail_s2_;
    mutable std::optional<KdeTailReference> tail_s5_;
};

}  // namespace htd::core
