#include "pipeline/scorer.hpp"

#include <string>
#include <utility>

namespace htd::core {

BoundaryScorer::BoundaryScorer(BoundaryArtifact artifact)
    : artifact_(std::move(artifact)) {}

const ml::OneClassSvm& BoundaryScorer::svm_for(Boundary b) const {
    const BoundaryStatus& st = artifact_.boundary_status(b);
    if (!st.usable() || !artifact_.svm(b).has_value()) {
        std::string msg = "BoundaryScorer: boundary " + boundary_name(b);
        if (st.health == BoundaryHealth::kFailed) {
            msg += " failed: " + st.detail;
        } else {
            msg += " is not present in the artifact";
        }
        throw BoundaryUnavailableError(msg);
    }
    return *artifact_.svm(b);
}

std::vector<bool> BoundaryScorer::classify(Boundary b,
                                           const linalg::Matrix& fingerprints) const {
    return score_fingerprints(b, svm_for(b), artifact_.fingerprint_dim(b),
                              fingerprints);
}

linalg::Vector BoundaryScorer::decision_values(
    Boundary b, const linalg::Matrix& fingerprints) const {
    const ml::OneClassSvm& svm = svm_for(b);
    screen_fingerprints("decision_values", b, artifact_.fingerprint_dim(b),
                        fingerprints);
    return svm.decision_values(fingerprints);
}

ml::DetectionMetrics BoundaryScorer::evaluate(
    Boundary b, const silicon::DuttDataset& dutts) const {
    const std::vector<bool> inside = classify(b, dutts.fingerprints);
    const std::vector<ml::DeviceLabel> labels = dutts.labels();
    return ml::evaluate_detection(inside, labels);
}

}  // namespace htd::core
