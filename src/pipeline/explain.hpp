#pragma once
/// \file explain.hpp
/// Per-chip verdict attribution (schema `htd.explain.v1`): *why* did a chip
/// land inside or outside each boundary? For one fingerprint the record
/// carries, per usable boundary:
///
///  - the decision value and its margin to the zero threshold (positive =
///    inside the trusted region, i.e. Trojan-free);
///  - a per-channel contribution ranking: leave-one-channel-out decision
///    deltas (replace channel c with the training mean and re-evaluate —
///    the delta is what that channel's reading contributed to the verdict)
///    plus the chip's standardized coordinates against the KMM-weighted
///    calibration cloud (the SVM's whitening transform `z = W (x - mean)`
///    is fit on exactly that cloud, so `z` reads as per-channel z-scores);
///  - the k nearest calibration neighbours (support vectors, preprocessed
///    space) with distances and SMO weights;
///
/// plus the KDE tail mass of the fingerprint under the persisted S2/S5
/// adaptive estimators: the density at the chip and the fraction of
/// calibration observations whose own density is at most the chip's (a
/// density-percentile — 0 means "deeper in the tail than every calibration
/// sample"). The calibration densities depend only on the artifact, so a
/// scorer ranks them once (`KdeTailReference`) and each chip then costs one
/// density evaluation per estimator.
///
/// Everything is computed from the artifact's persisted state — the same
/// representation `htd.boundary.v1` round-trips bitwise — so a record is
/// identical whether the scorer was built in-process via
/// `BoundaryArtifact::from_pipeline` or from a saved/loaded artifact, and
/// deterministic at a fixed seed. `BoundaryScorer::explain` (scorer.hpp)
/// produces records; `tools/htd_explain` renders them.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "io/json.hpp"
#include "linalg/matrix.hpp"
#include "pipeline/pipeline.hpp"
#include "stats/kde.hpp"

namespace htd::core {

/// Schema tag stamped on every explain record.
inline constexpr std::string_view kExplainSchema = "htd.explain.v1";

/// One channel's contribution to a boundary decision.
struct ChannelAttribution {
    std::size_t channel = 0;
    /// Standardized coordinate of the chip against the calibration cloud.
    double z = 0.0;
    /// decision(x) - decision(x with this channel at the training mean):
    /// positive = the channel's actual reading pushed the chip inward.
    double loco_delta = 0.0;
};

/// One of the k nearest calibration neighbours (a support vector).
struct NeighborRef {
    std::size_t index = 0;  ///< support-vector row in the boundary model
    double distance = 0.0;  ///< Euclidean distance, preprocessed space
    double alpha = 0.0;     ///< SMO weight of the neighbour
};

/// Attribution for one boundary. Unusable boundaries keep `usable = false`
/// and carry only their health/detail, so a degraded artifact still
/// explains what it can.
struct BoundaryExplanation {
    Boundary boundary = Boundary::kB1;
    std::string health;
    std::string detail;
    bool usable = false;
    double decision = 0.0;
    double margin = 0.0;  ///< distance to the zero threshold (== decision)
    bool inside = false;
    std::vector<ChannelAttribution> channels;  ///< ranked by |loco_delta|
    std::vector<NeighborRef> neighbors;        ///< nearest first
};

/// KDE tail mass under one persisted estimator (S2 or S5).
struct KdeTailMass {
    bool present = false;    ///< estimator available in the artifact
    double density = 0.0;    ///< adaptive density at the chip's fingerprint
    /// Fraction of calibration observations with density <= the chip's;
    /// 0 = deeper in the tail than every calibration sample.
    double tail_percentile = 0.0;
};

/// One persisted S2/S5 estimator, rebuilt once, with the ascending densities
/// of its own calibration observations (reconstructed as std * scale + mean
/// from the artifact state, so in-process and loaded scorers agree bitwise).
class KdeTailReference {
public:
    /// Evaluates the M observation densities; throws like
    /// AdaptiveKde::from_state.
    explicit KdeTailReference(const stats::AdaptiveKde::State& state);

    /// Tail mass of `x`: the density there and the share of the M
    /// observations whose density is at most it, ties included — the count
    /// a `<=` scan gives. Not present when the widths disagree.
    [[nodiscard]] KdeTailMass at(const linalg::Vector& x) const;

private:
    stats::AdaptiveKde kde_;
    std::vector<double> sorted_densities_;  ///< ascending, NaN densities left out
};

/// The full htd.explain.v1 record for one chip.
struct ExplainRecord {
    std::string chip;
    bool flagged = false;          ///< verdict-boundary decision < 0
    std::string verdict_boundary;  ///< best usable boundary, "" when none
    std::vector<BoundaryExplanation> boundaries;  ///< B1..B5 order
    KdeTailMass kde_s2;
    KdeTailMass kde_s5;

    [[nodiscard]] io::Json to_json() const;
};

/// Rendering/size knobs for `BoundaryScorer::explain`.
struct ExplainOptions {
    /// Channels kept per boundary after ranking (0 = all).
    std::size_t top_channels = 0;
    /// Nearest calibration neighbours reported per boundary.
    std::size_t neighbors = 3;
};

}  // namespace htd::core
