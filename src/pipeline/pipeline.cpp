#include "pipeline/pipeline.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/journal.hpp"
#include "obs/span.hpp"

namespace htd::core {

namespace {

std::size_t index_of(Boundary b) { return static_cast<std::size_t>(b); }

/// Reject NaN / +/-Inf matrices before they poison a trained model.
void require_finite(const linalg::Matrix& m, std::string_view context) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            if (!std::isfinite(m(r, c))) {
                throw DataQualityError(std::string(context) +
                                       ": non-finite value at row " +
                                       std::to_string(r) + ", column " +
                                       std::to_string(c));
            }
        }
    }
}

}  // namespace

std::string boundary_name(Boundary b) {
    switch (b) {
        case Boundary::kB1: return "B1";
        case Boundary::kB2: return "B2";
        case Boundary::kB3: return "B3";
        case Boundary::kB4: return "B4";
        case Boundary::kB5: return "B5";
    }
    throw std::invalid_argument("boundary_name: unknown boundary");
}

std::string dataset_name(Boundary b) {
    std::string n = boundary_name(b);
    n[0] = 'S';
    return n;
}

void screen_fingerprints(std::string_view caller, Boundary b,
                         std::size_t trained_dim,
                         const linalg::Matrix& fingerprints) {
    const std::string context(caller);
    if (fingerprints.cols() != trained_dim) {
        throw DimensionError(context + ": fingerprint dimension mismatch (got " +
                             std::to_string(fingerprints.cols()) +
                             " columns, boundary " + boundary_name(b) +
                             " was calibrated on " + std::to_string(trained_dim) +
                             ")");
    }
    require_finite(fingerprints, context + ": fingerprints");
}

std::vector<bool> score_fingerprints(Boundary b, const ml::OneClassSvm& svm,
                                     std::size_t trained_dim,
                                     const linalg::Matrix& fingerprints) {
    screen_fingerprints("classify", b, trained_dim, fingerprints);
    obs::ScopedSpan span("score.classify");
    span.attr("boundary", static_cast<double>(index_of(b)) + 1.0);  // 1 = B1
    span.attr("devices", static_cast<double>(fingerprints.rows()));
    std::vector<bool> inside(fingerprints.rows());
    std::size_t accepted = 0;
    obs::EventJournal& journal = obs::EventJournal::global();
    const bool forensics = journal.enabled();
    for (std::size_t r = 0; r < fingerprints.rows(); ++r) {
        // contains() is decision_value >= 0, so the verdict and the journaled
        // decision come from the same single evaluation.
        const double decision = svm.decision_value(fingerprints.row(r));
        inside[r] = decision >= 0.0;
        accepted += inside[r] ? 1 : 0;
        if (forensics) {
            obs::Event ev("chip_scored");
            ev.chip = std::to_string(r);
            ev.boundary = boundary_name(b);
            ev.value("decision", decision).value("inside", inside[r] ? 1.0 : 0.0);
            journal.append(std::move(ev));
        }
    }
    span.attr("accepted", static_cast<double>(accepted));
    obs::Registry::global().work_add("work.score.devices",
                                     static_cast<double>(fingerprints.rows()));
    return inside;
}

std::string boundary_health_name(BoundaryHealth health) {
    switch (health) {
        case BoundaryHealth::kUntrained: return "untrained";
        case BoundaryHealth::kHealthy: return "healthy";
        case BoundaryHealth::kDegraded: return "degraded";
        case BoundaryHealth::kFailed: return "failed";
    }
    return "unknown";
}

GoldenFreePipeline::GoldenFreePipeline(PipelineConfig config,
                                       silicon::SpiceSimulator simulator)
    : config_(config), simulator_(std::move(simulator)), regressions_(config.mars) {
    if (config_.monte_carlo_samples < 2) {
        throw ConfigError("GoldenFreePipeline: need >= 2 Monte Carlo samples");
    }
    if (config_.synthetic_samples == 0) {
        throw ConfigError("GoldenFreePipeline: zero synthetic samples");
    }
    if (!(config_.kmm_min_effective_sample_size >= 0.0)) {
        throw ConfigError(
            "GoldenFreePipeline: negative KMM effective-sample-size floor");
    }
    obs::Registry::global().configure(config_.obs);
}

linalg::Matrix GoldenFreePipeline::transform_pcms(const linalg::Matrix& pcms) const {
    if (!config_.log_transform_pcm) return pcms;
    linalg::Matrix out = pcms;
    for (std::size_t r = 0; r < out.rows(); ++r) {
        auto row = out.row_span(r);
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (row[c] <= 0.0) {
                throw DataQualityError(
                    "GoldenFreePipeline: log transform requires positive PCM "
                    "values; got " +
                    std::to_string(row[c]) + " at row " + std::to_string(r) +
                    ", column " + std::to_string(c));
            }
            row[c] = std::log(row[c]);
        }
    }
    return out;
}

ml::OneClassSvm GoldenFreePipeline::train_boundary(const linalg::Matrix& dataset) const {
    ml::OneClassSvm svm(config_.svm);
    svm.fit(dataset);
    return svm;
}

linalg::Matrix GoldenFreePipeline::kde_enhance(Boundary b,
                                               const linalg::Matrix& source,
                                               rng::Rng& rng,
                                               std::string_view probe_name) {
    stats::AdaptiveKde kde(source, config_.kde_alpha, config_.kde_bandwidth,
                           config_.kde_kernel, config_.kde_max_lambda);
    linalg::Matrix synthetic = kde.sample_n(rng, config_.synthetic_samples);
    health_.record(probe_kde(probe_name, source, synthetic, kde.bandwidth()));
    kdes_[index_of(b)] = std::move(kde);
    return synthetic;
}

void GoldenFreePipeline::record_svm_probe(Boundary b) const {
    const std::size_t i = index_of(b);
    const linalg::Matrix& dataset = datasets_[i];
    const ml::OneClassSvm& svm = boundaries_[i];
    if (!svm.fitted() || dataset.rows() == 0) return;

    // Decision values over a strided sample of the training set: large
    // synthetic populations (S2/S5) would make the full pass quadratic in
    // the support-vector count for no diagnostic gain.
    constexpr std::size_t kMaxProbeRows = 512;
    const std::size_t stride = dataset.rows() / kMaxProbeRows + 1;
    const std::size_t sampled = (dataset.rows() + stride - 1) / stride;
    linalg::Matrix sample(sampled, dataset.cols());
    for (std::size_t r = 0, out = 0; r < dataset.rows(); r += stride, ++out) {
        for (std::size_t c = 0; c < dataset.cols(); ++c) sample(out, c) = dataset(r, c);
    }
    const linalg::Vector decisions = svm.decision_values(sample);
    const std::size_t trained =
        std::min(dataset.rows(), config_.svm.max_training_samples);
    health_.record(probe_svm_margins("svm." + boundary_name(b), decisions.span(),
                                     config_.svm.nu, svm.support_vector_count(),
                                     trained));
}

template <typename BuildDataset>
void GoldenFreePipeline::build_boundary(Boundary b, BuildDataset&& build) {
    const std::size_t i = index_of(b);
    try {
        datasets_[i] = build();
        boundaries_[i] = train_boundary(datasets_[i]);
        if (status_[i].health != BoundaryHealth::kDegraded) {
            status_[i] = {BoundaryHealth::kHealthy, {}};
        }
        record_svm_probe(b);
    } catch (const std::exception& e) {
        datasets_[i] = linalg::Matrix{};
        boundaries_[i] = ml::OneClassSvm(config_.svm);
        kdes_[i].reset();
        status_[i] = {BoundaryHealth::kFailed, e.what()};
        obs::Registry::global().counter_add("pipeline.boundary_failures");
    }
}

void GoldenFreePipeline::run_premanufacturing(rng::Rng& rng) {
    obs::ScopedSpan stage("pipeline.stage1_premanufacturing");
    stage.attr("monte_carlo_samples", static_cast<double>(config_.monte_carlo_samples));

    // A re-run rebuilds every boundary from scratch.
    premanufacturing_done_ = false;
    silicon_done_ = false;
    status_ = {};
    for (auto& kde : kdes_) kde.reset();
    kmm_fallback_applied_ = false;
    kmm_ess_ = std::numeric_limits<double>::quiet_NaN();
    calibration_.reset();
    health_.clear();

    linalg::Matrix golden_fingerprints;
    {
        obs::ScopedSpan span("pipeline.monte_carlo");
        const silicon::SpiceSimulator::GoldenData golden =
            simulator_.simulate_golden(rng, config_.monte_carlo_samples);
        mc_pcms_ = transform_pcms(golden.pcms);
        golden_fingerprints = golden.fingerprints;
        span.attr("pcm_dim", static_cast<double>(mc_pcms_.cols()));
        span.attr("fingerprint_dim", static_cast<double>(golden_fingerprints.cols()));
    }
    obs::Registry::global().counter_add("pipeline.monte_carlo_devices",
                                        static_cast<double>(mc_pcms_.rows()));
    obs::Registry::global().work_add("work.mc.samples",
                                     static_cast<double>(mc_pcms_.rows()));

    // Regression bank g_j : m_p -> m_j on the simulated devices. A failure
    // here kills the whole stage: nothing downstream can work without g.
    regressions_ = ml::MarsBank(config_.mars);
    regressions_.fit(mc_pcms_, golden_fingerprints);

    // Training fit health: per-output R^2 plus the training |residual|
    // distribution (the reference for the incoming-device residual probe).
    {
        std::vector<double> r2(regressions_.output_dim());
        for (std::size_t j = 0; j < r2.size(); ++j) {
            r2[j] = regressions_.model(j).r_squared();
        }
        const linalg::Matrix predicted = regressions_.predict_batch(mc_pcms_);
        train_abs_residuals_ = linalg::Matrix(golden_fingerprints.rows(),
                                              golden_fingerprints.cols());
        for (std::size_t r = 0; r < train_abs_residuals_.rows(); ++r) {
            for (std::size_t c = 0; c < train_abs_residuals_.cols(); ++c) {
                train_abs_residuals_(r, c) =
                    std::abs(golden_fingerprints(r, c) - predicted(r, c));
            }
        }
        health_.record(probe_mars_fit(r2, train_abs_residuals_));
    }

    // S1 / B1: raw simulated fingerprints.
    build_boundary(Boundary::kB1, [&] { return golden_fingerprints; });

    // S2 / B2: tail-enhanced synthetic population.
    build_boundary(Boundary::kB2, [&] {
        return kde_enhance(Boundary::kB2, golden_fingerprints, rng, "kde.s2");
    });

    premanufacturing_done_ = true;
    obs::EventJournal& journal = obs::EventJournal::global();
    if (journal.enabled()) {
        obs::Event ev(premanufacturing_runs_ == 0
                          ? std::string("calibration")
                          : std::string("recalibration"));
        ev.detail = "stage1 premanufacturing: B1/B2 trained";
        ev.value("monte_carlo_samples", static_cast<double>(mc_pcms_.rows()));
        journal.append(std::move(ev));
    }
    ++premanufacturing_runs_;
}

void GoldenFreePipeline::run_silicon_stage(const linalg::Matrix& dutt_pcms,
                                           rng::Rng& rng) {
    if (!premanufacturing_done_) {
        throw StageOrderError("run_silicon_stage: pre-manufacturing stage has not run");
    }
    if (dutt_pcms.rows() == 0) {
        throw DataQualityError("run_silicon_stage: no DUTT PCM measurements");
    }
    if (dutt_pcms.cols() != mc_pcms_.cols()) {
        throw DimensionError("run_silicon_stage: PCM dimension mismatch (got " +
                             std::to_string(dutt_pcms.cols()) +
                             " columns, expected " +
                             std::to_string(mc_pcms_.cols()) + ")");
    }
    require_finite(dutt_pcms, "run_silicon_stage: DUTT PCMs");

    obs::ScopedSpan stage("pipeline.stage2_silicon");
    stage.attr("dutt_devices", static_cast<double>(dutt_pcms.rows()));
    obs::Registry::global().counter_add("pipeline.dutt_devices",
                                        static_cast<double>(dutt_pcms.rows()));

    silicon_done_ = false;
    // Journal the stage completion at every exit that leaves the pipeline
    // scoreable (healthy, fallback, or degraded-partial alike): the second
    // completed run onward is a `recalibration`.
    const auto journal_stage_done = [&](const std::string& outcome) {
        obs::EventJournal& journal = obs::EventJournal::global();
        if (journal.enabled()) {
            obs::Event ev(silicon_runs_ == 0 ? std::string("calibration")
                                             : std::string("recalibration"));
            ev.detail = "stage2 silicon: " + outcome;
            ev.value("dutt_devices", static_cast<double>(dutt_pcms.rows()));
            if (std::isfinite(kmm_ess_)) {
                ev.value("kmm_effective_sample_size", kmm_ess_);
            }
            ev.value("kmm_fallback", kmm_fallback_applied_ ? 1.0 : 0.0);
            journal.append(std::move(ev));
        }
        ++silicon_runs_;
    };
    for (const Boundary b : {Boundary::kB3, Boundary::kB4, Boundary::kB5}) {
        status_[index_of(b)] = {};
        kdes_[index_of(b)].reset();
    }
    kmm_fallback_applied_ = false;
    kmm_ess_ = std::numeric_limits<double>::quiet_NaN();
    calibration_.reset();

    const linalg::Matrix silicon_pcms = transform_pcms(dutt_pcms);

    // S3 / B3: golden fingerprints predicted from the measured silicon PCMs.
    build_boundary(Boundary::kB3,
                   [&] { return regressions_.predict_batch(silicon_pcms); });

    // S4 / B4: simulated PCMs calibrated to the silicon operating point by
    // kernel mean shift; the KMM importance weights then resample the
    // calibrated cloud onto the silicon distribution (m''_p), and the
    // regression bank maps it to fingerprints. The Kish effective sample
    // size of the weights is the calibration's health metric: below the
    // configured floor the resampled cloud is a handful of repeated points
    // and B4/B5 fall back to S3 (or the stage throws, keeping B3 usable).
    bool fallback = false;
    try {
        const ml::KernelMeanShiftCalibrator calibrator(config_.calibration);
        calibration_ = calibrator.calibrate(mc_pcms_, silicon_pcms);
        kmm_ess_ = ml::effective_sample_size(calibration_->weights);
        obs::Registry::global().gauge_set("pipeline.kmm_effective_sample_size",
                                          kmm_ess_);
        if (kmm_ess_ < config_.kmm_min_effective_sample_size) {
            if (!config_.kmm_fallback_to_b3) {
                silicon_done_ = true;  // B3 (if healthy) stays usable
                ProbeResult collapse = probe_kmm_weights(calibration_->weights);
                collapse.escalate(HealthLevel::kCritical,
                                  "KMM calibration collapsed and the B4->B3 "
                                  "fallback is disabled");
                health_.record(std::move(collapse));
                health_.record(probe_boundaries(status_));
                throw CalibrationCollapseError(
                    "run_silicon_stage: KMM calibration collapsed (effective "
                    "sample size " +
                        std::to_string(kmm_ess_) + " below floor " +
                        std::to_string(config_.kmm_min_effective_sample_size) +
                        ") and the B4->B3 fallback is disabled",
                    kmm_ess_, config_.kmm_min_effective_sample_size);
            }
            fallback = true;
        }
    } catch (const CalibrationCollapseError&) {
        throw;
    } catch (const std::exception& e) {
        const std::string detail = std::string("KMM calibration failed: ") + e.what();
        status_[index_of(Boundary::kB4)] = {BoundaryHealth::kFailed, detail};
        status_[index_of(Boundary::kB5)] = {BoundaryHealth::kFailed, detail};
        obs::Registry::global().counter_add("pipeline.boundary_failures", 2.0);
        ProbeResult kmm_probe;
        kmm_probe.name = "kmm_weights";
        kmm_probe.escalate(HealthLevel::kCritical, detail);
        health_.record(std::move(kmm_probe));
        // No calibrated reference exists; measure drift against the raw
        // simulated PCM cloud instead.
        health_.record(probe_drift("drift.pcm", mc_pcms_, silicon_pcms));
        health_.record(probe_boundaries(status_));
        silicon_done_ = true;
        journal_stage_done("KMM calibration failed, B4/B5 unavailable");
        return;
    }

    {
        ProbeResult kmm_probe = probe_kmm_weights(calibration_->weights);
        if (fallback) {
            kmm_probe.escalate(HealthLevel::kDegraded,
                               "KMM collapse: B4/B5 fall back to S3");
        }
        health_.record(std::move(kmm_probe));

        // Calibration staleness: how far the kernel mean shift had to move
        // the simulated PCMs to reach the silicon operating point.
        health_.record(probe_calibration(mc_pcms_, calibration_->total_shift,
                                         calibration_->iterations));

        // The drift detector proper: does the incoming silicon PCM batch
        // still look like the KMM-calibrated reference distribution? The
        // reference is the *weighted* calibrated cloud materialized by
        // importance resampling — the unweighted cloud keeps the simulator's
        // shape and would false-alarm on a healthy calibration. On a
        // fallback the weights are collapsed, so the unweighted cloud is
        // used (the verdict is already degraded through kmm_weights).
        //
        // The 512-row resample consumes the stage-2 RNG stream before B4
        // and B5 sample from it, so it is part of the B-score byte
        // contract: moving or dropping this draw changes the B4/B5 scores
        // and needs a re-bless of the baselines in bench/baselines/.
        constexpr std::size_t kDriftReferenceSamples = 512;
        const linalg::Matrix drift_reference =
            fallback ? calibration_->calibrated
                     : ml::weighted_resample(calibration_->calibrated,
                                             calibration_->weights,
                                             kDriftReferenceSamples, rng);
        health_.record(probe_drift("drift.pcm", drift_reference, silicon_pcms));
    }

    if (fallback) {
        kmm_fallback_applied_ = true;
        obs::Registry::global().counter_add("pipeline.kmm_fallback_to_b3");
        const std::string detail =
            "KMM collapse (effective sample size " + std::to_string(kmm_ess_) +
            " < floor " + std::to_string(config_.kmm_min_effective_sample_size) +
            "): trained on S3";
        {
            obs::EventJournal& journal = obs::EventJournal::global();
            if (journal.enabled()) {
                obs::Event ev("boundary_fallback");
                ev.boundary = boundary_name(Boundary::kB4);
                ev.detail = detail;
                ev.value("effective_sample_size", kmm_ess_)
                    .value("floor", config_.kmm_min_effective_sample_size);
                journal.append(std::move(ev));
            }
        }
        if (!status_[index_of(Boundary::kB3)].usable()) {
            const std::string no_fb =
                detail + ", but B3 is unavailable: " +
                status_[index_of(Boundary::kB3)].detail;
            status_[index_of(Boundary::kB4)] = {BoundaryHealth::kFailed, no_fb};
            status_[index_of(Boundary::kB5)] = {BoundaryHealth::kFailed, no_fb};
            health_.record(probe_boundaries(status_));
            silicon_done_ = true;
            journal_stage_done("KMM collapse with B3 unavailable");
            return;
        }
        status_[index_of(Boundary::kB4)] = {BoundaryHealth::kDegraded, detail};
        build_boundary(Boundary::kB4,
                       [&] { return datasets_[index_of(Boundary::kB3)]; });
    } else {
        build_boundary(Boundary::kB4, [&] {
            const linalg::Matrix calibrated_pcms = ml::weighted_resample(
                calibration_->calibrated, calibration_->weights,
                config_.monte_carlo_samples, rng);
            return regressions_.predict_batch(calibrated_pcms);
        });
    }

    // S5 / B5: tail-enhanced version of S4 (inherits B4's degradation).
    if (status_[index_of(Boundary::kB4)].usable()) {
        status_[index_of(Boundary::kB5)] = status_[index_of(Boundary::kB4)];
        build_boundary(Boundary::kB5, [&] {
            return kde_enhance(Boundary::kB5, datasets_[index_of(Boundary::kB4)],
                               rng, "kde.s5");
        });
    } else {
        status_[index_of(Boundary::kB5)] = {
            BoundaryHealth::kFailed,
            "B4 unavailable: " + status_[index_of(Boundary::kB4)].detail};
    }

    health_.record(probe_boundaries(status_));
    silicon_done_ = true;
    journal_stage_done(kmm_fallback_applied_ ? "B4/B5 fell back to S3"
                                             : "B3/B4/B5 trained");
}

void GoldenFreePipeline::probe_incoming(const silicon::DuttDataset& dutts) const {
    if (!premanufacturing_done_) {
        throw StageOrderError("probe_incoming: pre-manufacturing stage has not run");
    }
    if (dutts.pcms.cols() != mc_pcms_.cols()) {
        throw DimensionError("probe_incoming: PCM dimension mismatch (got " +
                             std::to_string(dutts.pcms.cols()) + " columns, expected " +
                             std::to_string(mc_pcms_.cols()) + ")");
    }
    if (dutts.fingerprints.cols() != train_abs_residuals_.cols()) {
        throw DimensionError(
            "probe_incoming: fingerprint dimension mismatch (got " +
            std::to_string(dutts.fingerprints.cols()) + " columns, expected " +
            std::to_string(train_abs_residuals_.cols()) + ")");
    }
    const linalg::Matrix predicted =
        regressions_.predict_batch(transform_pcms(dutts.pcms));
    linalg::Matrix incoming(dutts.fingerprints.rows(), dutts.fingerprints.cols());
    for (std::size_t r = 0; r < incoming.rows(); ++r) {
        for (std::size_t c = 0; c < incoming.cols(); ++c) {
            incoming(r, c) = std::abs(dutts.fingerprints(r, c) - predicted(r, c));
        }
    }
    health_.record(probe_regression_residuals(train_abs_residuals_, incoming));
}

bool GoldenFreePipeline::boundary_ready(Boundary b) const noexcept {
    return status_[index_of(b)].usable();
}

io::Json GoldenFreePipeline::degradation_report() const {
    io::Json boundaries = io::Json::array();
    for (const Boundary b : kAllBoundaries) {
        const BoundaryStatus& st = status_[index_of(b)];
        io::Json entry = io::Json::object();
        entry.set("boundary", boundary_name(b));
        entry.set("health", boundary_health_name(st.health));
        entry.set("detail", st.detail);
        boundaries.push_back(std::move(entry));
    }
    io::Json out = io::Json::object();
    out.set("boundaries", std::move(boundaries));
    out.set("kmm_fallback_to_b3", kmm_fallback_applied_);
    out.set("kmm_effective_sample_size",
            std::isfinite(kmm_ess_) ? io::Json(kmm_ess_) : io::Json());
    return out;
}

const ml::OneClassSvm& GoldenFreePipeline::svm_for(Boundary b) const {
    const BoundaryStatus& st = status_[index_of(b)];
    if (!st.usable()) {
        std::string msg = "GoldenFreePipeline: boundary " + boundary_name(b);
        if (st.health == BoundaryHealth::kFailed) {
            msg += " failed: " + st.detail;
        } else {
            msg += " has not been trained yet";
        }
        throw BoundaryUnavailableError(msg);
    }
    return boundaries_[index_of(b)];
}

std::vector<bool> GoldenFreePipeline::classify(Boundary b,
                                               const linalg::Matrix& fingerprints) const {
    return score_fingerprints(b, svm_for(b), datasets_[index_of(b)].cols(),
                              fingerprints);
}

linalg::Vector GoldenFreePipeline::decision_values(
    Boundary b, const linalg::Matrix& fingerprints) const {
    const ml::OneClassSvm& svm = svm_for(b);
    screen_fingerprints("decision_values", b, datasets_[index_of(b)].cols(),
                        fingerprints);
    return svm.decision_values(fingerprints);
}

ml::DetectionMetrics GoldenFreePipeline::evaluate(
    Boundary b, const silicon::DuttDataset& dutts) const {
    const std::vector<bool> inside = classify(b, dutts.fingerprints);
    const std::vector<ml::DeviceLabel> labels = dutts.labels();
    return ml::evaluate_detection(inside, labels);
}

const linalg::Matrix& GoldenFreePipeline::dataset(Boundary b) const {
    const BoundaryStatus& st = status_[index_of(b)];
    if (!st.usable()) {
        std::string msg = "GoldenFreePipeline: dataset " + dataset_name(b);
        if (st.health == BoundaryHealth::kFailed) {
            msg += " is unavailable, boundary failed: " + st.detail;
        } else {
            msg += " has not been built yet";
        }
        throw BoundaryUnavailableError(msg);
    }
    return datasets_[index_of(b)];
}

const ml::MarsBank& GoldenFreePipeline::regressions() const {
    if (!premanufacturing_done_) {
        throw StageOrderError("GoldenFreePipeline: regressions not trained yet");
    }
    return regressions_;
}

const linalg::Matrix& GoldenFreePipeline::simulated_pcms() const {
    if (!premanufacturing_done_) {
        throw StageOrderError(
            "GoldenFreePipeline: pre-manufacturing stage has not run");
    }
    return mc_pcms_;
}

// --- GoldenChipBaseline -----------------------------------------------------------

GoldenChipBaseline::GoldenChipBaseline(ml::OneClassSvm::Options svm_opts)
    : svm_(svm_opts) {}

void GoldenChipBaseline::fit(const linalg::Matrix& golden_fingerprints) {
    obs::ScopedSpan span("baseline.fit");
    span.attr("golden_devices", static_cast<double>(golden_fingerprints.rows()));
    svm_.fit(golden_fingerprints);
}

std::vector<bool> GoldenChipBaseline::classify(const linalg::Matrix& fingerprints) const {
    obs::ScopedSpan span("baseline.classify");
    span.attr("devices", static_cast<double>(fingerprints.rows()));
    std::vector<bool> inside(fingerprints.rows());
    for (std::size_t r = 0; r < fingerprints.rows(); ++r) {
        inside[r] = svm_.contains(fingerprints.row(r));
    }
    return inside;
}

ml::DetectionMetrics GoldenChipBaseline::evaluate(
    const silicon::DuttDataset& dutts) const {
    const std::vector<bool> inside = classify(dutts.fingerprints);
    const std::vector<ml::DeviceLabel> labels = dutts.labels();
    return ml::evaluate_detection(inside, labels);
}

}  // namespace htd::core
