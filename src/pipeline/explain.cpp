#include "pipeline/explain.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>

#include "pipeline/scorer.hpp"
#include "stats/kde.hpp"

namespace htd::core {

namespace {

io::Json tail_mass_json(const KdeTailMass& t) {
    io::Json doc = io::Json::object();
    doc.set("present", t.present);
    if (t.present) {
        doc.set("density", t.density);
        doc.set("tail_percentile", t.tail_percentile);
    }
    return doc;
}

}  // namespace

KdeTailReference::KdeTailReference(const stats::AdaptiveKde::State& state)
    : kde_(stats::AdaptiveKde::from_state(state)) {
    const linalg::Matrix& std_data = state.pilot.std_data;
    sorted_densities_.reserve(std_data.rows());
    linalg::Vector obs(std_data.cols());
    for (std::size_t i = 0; i < std_data.rows(); ++i) {
        for (std::size_t c = 0; c < std_data.cols(); ++c) {
            obs[c] = std_data(i, c) * state.pilot.col_scale[c] +
                     state.pilot.col_mean[c];
        }
        // A NaN density is never <= the chip's, so it never counts; leaving
        // it out keeps the sort well-defined.
        if (const double f = kde_.density(obs); !std::isnan(f)) {
            sorted_densities_.push_back(f);
        }
    }
    std::sort(sorted_densities_.begin(), sorted_densities_.end());
}

KdeTailMass KdeTailReference::at(const linalg::Vector& x) const {
    KdeTailMass out;
    if (kde_.dim() != x.size()) return out;
    out.present = true;
    out.density = kde_.density(x);
    // The ascending densities <= the chip's form a prefix (none when the
    // chip's density is NaN), so its length is the `<=` count.
    const auto at_most = std::partition_point(sorted_densities_.begin(),
                                              sorted_densities_.end(),
                                              [&](double f) { return f <= out.density; }) -
                         sorted_densities_.begin();
    out.tail_percentile = static_cast<double>(at_most) /
                          static_cast<double>(kde_.observation_count());
    return out;
}

io::Json ExplainRecord::to_json() const {
    io::Json bs = io::Json::array();
    for (const BoundaryExplanation& be : boundaries) {
        io::Json entry = io::Json::object();
        entry.set("boundary", boundary_name(be.boundary));
        entry.set("health", be.health);
        entry.set("detail", be.detail);
        entry.set("usable", be.usable);
        if (be.usable) {
            entry.set("decision", be.decision);
            entry.set("margin", be.margin);
            entry.set("inside", be.inside);
            io::Json channels = io::Json::array();
            for (const ChannelAttribution& ca : be.channels) {
                io::Json c = io::Json::object();
                c.set("channel", ca.channel);
                c.set("z", ca.z);
                c.set("loco_delta", ca.loco_delta);
                channels.push_back(std::move(c));
            }
            entry.set("channels", std::move(channels));
            io::Json neighbors = io::Json::array();
            for (const NeighborRef& nb : be.neighbors) {
                io::Json n = io::Json::object();
                n.set("index", nb.index);
                n.set("distance", nb.distance);
                n.set("alpha", nb.alpha);
                neighbors.push_back(std::move(n));
            }
            entry.set("neighbors", std::move(neighbors));
        }
        bs.push_back(std::move(entry));
    }
    io::Json kde = io::Json::object();
    kde.set("s2", tail_mass_json(kde_s2));
    kde.set("s5", tail_mass_json(kde_s5));

    io::Json doc = io::Json::object();
    doc.set("schema", std::string(kExplainSchema));
    doc.set("chip", chip);
    doc.set("flagged", flagged);
    doc.set("verdict_boundary", verdict_boundary);
    doc.set("boundaries", std::move(bs));
    doc.set("kde", std::move(kde));
    return doc;
}

std::optional<Boundary> BoundaryScorer::verdict_boundary() const noexcept {
    // The paper's boundary ladder improves monotonically B1 -> B5, so the
    // verdict comes from the highest boundary that survived calibration
    // and loading.
    for (auto it = kAllBoundaries.rbegin(); it != kAllBoundaries.rend(); ++it) {
        if (artifact_.boundary_ready(*it)) return *it;
    }
    return std::nullopt;
}

ExplainRecord BoundaryScorer::explain(const linalg::Vector& fingerprint,
                                      std::string chip,
                                      const ExplainOptions& opts) const {
    const linalg::Matrix as_row =
        linalg::Matrix::from_rows(std::span<const linalg::Vector>(&fingerprint, 1));
    ExplainRecord rec;
    rec.chip = std::move(chip);

    for (const Boundary b : kAllBoundaries) {
        BoundaryExplanation be;
        be.boundary = b;
        const BoundaryStatus& st = artifact_.boundary_status(b);
        be.health = boundary_health_name(st.health);
        be.detail = st.detail;
        if (!artifact_.boundary_ready(b)) {
            rec.boundaries.push_back(std::move(be));
            continue;
        }
        screen_fingerprints("explain", b, artifact_.fingerprint_dim(b), as_row);
        const ml::OneClassSvm& svm = *artifact_.svm(b);
        be.usable = true;
        be.decision = svm.decision_value(fingerprint);
        be.margin = be.decision;
        be.inside = be.decision >= 0.0;

        const ml::OneClassSvm::State state = svm.export_state();
        const std::size_t dim = fingerprint.size();

        // Standardized coordinates against the calibration cloud the SVM
        // preprocessing was fit on: z = W (x - mean).
        linalg::Vector z(dim);
        for (std::size_t r = 0; r < dim; ++r) {
            double acc = 0.0;
            for (std::size_t c = 0; c < dim; ++c) {
                acc += state.input_transform(r, c) *
                       (fingerprint[c] - state.input_mean[c]);
            }
            z[r] = acc;
        }

        // Leave-one-channel-out: replace one channel with the training
        // mean and re-evaluate. The delta is that channel's contribution.
        be.channels.reserve(dim);
        linalg::Vector probe = fingerprint;
        for (std::size_t c = 0; c < dim; ++c) {
            const double kept = probe[c];
            probe[c] = state.input_mean[c];
            const double without = svm.decision_value(probe);
            probe[c] = kept;
            be.channels.push_back({c, z[c], be.decision - without});
        }
        std::sort(be.channels.begin(), be.channels.end(),
                  [](const ChannelAttribution& a, const ChannelAttribution& bch) {
                      const double ma = std::abs(a.loco_delta);
                      const double mb = std::abs(bch.loco_delta);
                      if (ma != mb) return ma > mb;
                      return a.channel < bch.channel;
                  });
        if (opts.top_channels > 0 && be.channels.size() > opts.top_channels) {
            be.channels.resize(opts.top_channels);
        }

        // k nearest calibration neighbours in the preprocessed space the
        // kernel actually measures distance in.
        const linalg::Matrix& sv = state.support_vectors;
        be.neighbors.reserve(sv.rows());
        for (std::size_t i = 0; i < sv.rows(); ++i) {
            double d2 = 0.0;
            for (std::size_t c = 0; c < sv.cols(); ++c) {
                const double d = z[c] - sv(i, c);
                d2 += d * d;
            }
            be.neighbors.push_back({i, std::sqrt(d2), state.alpha[i]});
        }
        std::sort(be.neighbors.begin(), be.neighbors.end(),
                  [](const NeighborRef& a, const NeighborRef& bn) {
                      if (a.distance != bn.distance) {
                          return a.distance < bn.distance;
                      }
                      return a.index < bn.index;
                  });
        if (be.neighbors.size() > opts.neighbors) {
            be.neighbors.resize(opts.neighbors);
        }
        rec.boundaries.push_back(std::move(be));
    }

    if (const std::optional<Boundary> vb = verdict_boundary(); vb.has_value()) {
        rec.verdict_boundary = boundary_name(*vb);
        const BoundaryExplanation& vbe =
            rec.boundaries[static_cast<std::size_t>(*vb)];
        rec.flagged = vbe.usable && !vbe.inside;
    }

    // The calibration densities depend only on the artifact: rank them on
    // the first explain, not at construction, so loading a scorer that only
    // scores pays nothing for them.
    std::call_once(tail_once_, [this] {
        if (artifact_.kde_s2().has_value()) tail_s2_.emplace(*artifact_.kde_s2());
        if (artifact_.kde_s5().has_value()) tail_s5_.emplace(*artifact_.kde_s5());
    });
    if (tail_s2_.has_value()) rec.kde_s2 = tail_s2_->at(fingerprint);
    if (tail_s5_.has_value()) rec.kde_s5 = tail_s5_->at(fingerprint);
    return rec;
}

}  // namespace htd::core
