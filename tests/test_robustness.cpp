/// Tests for the robustness layer: seeded fault injection (FaultyBench),
/// hardened ingestion (MeasurementValidator), and the pipeline's typed
/// errors / graceful degradation (KMM-collapse fallback, partial-boundary
/// operation).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "core/errors.hpp"
#include "pipeline/experiment.hpp"
#include "pipeline/ingest.hpp"
#include "pipeline/pipeline.hpp"
#include "silicon/fault_injector.hpp"

namespace {

using htd::core::Boundary;
using htd::core::BoundaryHealth;
using htd::core::CellFault;
using htd::core::DataQualityError;
using htd::core::DimensionError;
using htd::core::GoldenFreePipeline;
using htd::core::IngestPolicy;
using htd::core::IngestResult;
using htd::core::MeasurementValidator;
using htd::core::PipelineConfig;
using htd::linalg::Matrix;
using htd::linalg::Vector;
using htd::rng::Rng;
using htd::silicon::Device;
using htd::silicon::FabricatedLot;
using htd::silicon::FaultModel;
using htd::silicon::FaultyBench;
using htd::silicon::MeasurementSource;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Deterministic in-range source: PCMs near 10 ns, fingerprints near
/// -30 dBm, with per-device structure and a little caller-rng noise.
class StubSource : public MeasurementSource {
public:
    StubSource(std::size_t np, std::size_t nm) : np_(np), nm_(nm) {}

    Vector measure_pcm(const Device& device, Rng& rng) const override {
        Vector v(np_);
        for (std::size_t c = 0; c < np_; ++c) {
            v[c] = 10.0 + 0.01 * static_cast<double>(device.chip_id) +
                   rng.normal(0.0, 0.05);
        }
        return v;
    }

    Vector measure_fingerprint(const Device& device, Rng& rng) const override {
        Vector v(nm_);
        for (std::size_t c = 0; c < nm_; ++c) {
            v[c] = -30.0 + 0.1 * static_cast<double>(device.chip_id) +
                   rng.normal(0.0, 0.1);
        }
        return v;
    }

private:
    std::size_t np_;
    std::size_t nm_;
};

/// Source whose first contact with each device drops a fingerprint channel;
/// every re-measure is clean. Exercises the validator's retry loop.
class FlakyFirstContact : public StubSource {
public:
    FlakyFirstContact(std::size_t np, std::size_t nm) : StubSource(np, nm) {}

    Vector measure_fingerprint(const Device& device, Rng& rng) const override {
        Vector v = StubSource::measure_fingerprint(device, rng);
        if (seen_[device.chip_id]++ == 0) v[0] = kNan;
        return v;
    }

private:
    mutable std::map<std::size_t, int> seen_;
};

FabricatedLot stub_lot(std::size_t n_devices) {
    FabricatedLot lot;
    for (std::size_t i = 0; i < n_devices; ++i) {
        Device dev;
        dev.chip_id = i;
        dev.variant = htd::trojan::DesignVariant::kTrojanFree;
        lot.devices.push_back(dev);
    }
    return lot;
}

// --- FaultModel / FaultyBench ---------------------------------------------------

TEST(FaultModel, ValidatesRatesAndMagnitudes) {
    FaultModel model;
    EXPECT_NO_THROW(model.validate());
    model.nan_dropout_rate = -0.1;
    EXPECT_THROW(model.validate(), std::invalid_argument);
    model.nan_dropout_rate = 1.5;
    EXPECT_THROW(model.validate(), std::invalid_argument);
    model = FaultModel{};
    model.spike_magnitude = -1.0;
    EXPECT_THROW(model.validate(), std::invalid_argument);
    model = FaultModel{};
    model.gain_drift_per_device = kNan;
    EXPECT_THROW(model.validate(), std::invalid_argument);
}

TEST(FaultyBench, ZeroRatesAreTransparent) {
    const StubSource inner(2, 4);
    const FaultyBench faulty(inner, FaultModel{});
    Device dev;
    dev.chip_id = 7;
    Rng r1(42);
    Rng r2(42);
    const Vector clean = inner.measure_fingerprint(dev, r1);
    const Vector decorated = faulty.measure_fingerprint(dev, r2);
    ASSERT_EQ(clean.size(), decorated.size());
    for (std::size_t c = 0; c < clean.size(); ++c) {
        EXPECT_DOUBLE_EQ(clean[c], decorated[c]);
    }
    EXPECT_EQ(faulty.stats().total_faults(), 0u);
}

TEST(FaultyBench, FullDropoutInjectsNanEverywhere) {
    const StubSource inner(2, 4);
    FaultModel model;
    model.nan_dropout_rate = 1.0;
    model.inf_fraction = 0.0;
    const FaultyBench faulty(inner, model);
    Rng rng(1);
    Device dev;
    const Vector fp = faulty.measure_fingerprint(dev, rng);
    for (std::size_t c = 0; c < fp.size(); ++c) EXPECT_TRUE(std::isnan(fp[c]));
    EXPECT_EQ(faulty.stats().nan_injected, 4u);
    EXPECT_EQ(faulty.stats().inf_injected, 0u);
}

TEST(FaultyBench, SaturatedDropoutRailsToInf) {
    const StubSource inner(2, 4);
    FaultModel model;
    model.nan_dropout_rate = 1.0;
    model.inf_fraction = 1.0;
    const FaultyBench faulty(inner, model);
    Rng rng(2);
    Device dev;
    const Vector fp = faulty.measure_fingerprint(dev, rng);
    for (std::size_t c = 0; c < fp.size(); ++c) EXPECT_TRUE(std::isinf(fp[c]));
    EXPECT_EQ(faulty.stats().inf_injected, 4u);
}

TEST(FaultyBench, StuckChannelRepeatsPreviousDevice) {
    const StubSource inner(2, 4);
    FaultModel model;
    model.stuck_rate = 1.0;
    const FaultyBench faulty(inner, model);
    Rng rng(3);
    Device first;
    first.chip_id = 0;
    Device second;
    second.chip_id = 1;
    const Vector a = faulty.measure_fingerprint(first, rng);
    const Vector b = faulty.measure_fingerprint(second, rng);
    // No latch existed for the first device; the second repeats the first.
    for (std::size_t c = 0; c < a.size(); ++c) EXPECT_DOUBLE_EQ(b[c], a[c]);
    EXPECT_EQ(faulty.stats().stuck_injected, 4u);
}

TEST(FaultyBench, CountsRemeasuresAndReset) {
    const StubSource inner(2, 4);
    const FaultyBench faulty(inner, FaultModel{});
    Rng rng(4);
    Device dev;
    (void)faulty.measure_pcm(dev, rng);
    (void)faulty.measure_pcm(dev, rng);
    (void)faulty.measure_fingerprint(dev, rng);
    EXPECT_EQ(faulty.stats().measurements, 3u);
    EXPECT_EQ(faulty.stats().remeasures, 1u);
    const_cast<FaultyBench&>(faulty).reset();
    EXPECT_EQ(faulty.stats().measurements, 0u);
}

// --- MeasurementValidator -------------------------------------------------------

TEST(IngestPolicy, Validates) {
    IngestPolicy policy;
    EXPECT_NO_THROW(policy.validate());
    policy.robust_z_threshold = 0.0;
    EXPECT_THROW(policy.validate(), htd::core::ConfigError);
    policy = IngestPolicy{};
    policy.pcm_range = {1.0, 0.0};
    EXPECT_THROW(policy.validate(), htd::core::ConfigError);
    policy = IngestPolicy{};
    policy.min_devices = 0;
    EXPECT_THROW(policy.validate(), htd::core::ConfigError);
}

TEST(Validator, ScreenFlagsEachFaultKind) {
    Rng rng(5);
    Matrix data(12, 3);
    for (std::size_t r = 0; r < 12; ++r) {
        for (std::size_t c = 0; c < 3; ++c) data(r, c) = rng.normal(0.0, 1.0);
    }
    data(0, 0) = kNan;
    data(1, 1) = -500.0;  // below the fingerprint range floor
    data(2, 2) = 25.0;    // in range, grossly outlying
    const MeasurementValidator validator;
    const auto res = validator.screen(data, IngestPolicy{}.fingerprint_range);
    EXPECT_EQ(res.nonfinite, 1u);
    EXPECT_EQ(res.out_of_range, 1u);
    EXPECT_GE(res.outliers, 1u);
    EXPECT_EQ(res.row_flagged[0], 1);
    EXPECT_EQ(res.row_flagged[1], 1);
    EXPECT_EQ(res.row_flagged[2], 1);
    EXPECT_EQ(res.row_rejected[2], 1);  // RMS z across channels
    EXPECT_EQ(res.row_flagged[3], 0);
    EXPECT_EQ(res.flagged_rows(), 3u);
}

TEST(Validator, AbsurdFingerprintPowerIsOutOfRange) {
    // +1e6 dBm is finite but no transmitter output: the physical edge
    // rejects it outright instead of leaving it to the robust z screen.
    Rng rng(5);
    Matrix data(12, 3);
    for (std::size_t r = 0; r < 12; ++r) {
        for (std::size_t c = 0; c < 3; ++c) data(r, c) = rng.normal(-6.0, 1.0);
    }
    data(4, 1) = 1e6;
    const MeasurementValidator validator;
    const auto res = validator.screen(data, IngestPolicy{}.fingerprint_range);
    EXPECT_EQ(res.out_of_range, 1u);
    EXPECT_EQ(res.outliers, 0u);
    EXPECT_EQ(res.nonfinite, 0u);
    ASSERT_EQ(res.issues.size(), 1u);
    EXPECT_EQ(res.issues[0].row, 4u);
    EXPECT_EQ(res.issues[0].col, 1u);
    EXPECT_EQ(res.issues[0].fault, CellFault::kOutOfRange);
}

TEST(Validator, SanitizeImputesIsolatedChannelsAndDropsBadPcms) {
    const StubSource source(2, 6);
    const FabricatedLot lot = stub_lot(12);
    Rng rng(6);
    htd::silicon::DuttDataset raw =
        static_cast<const MeasurementSource&>(source).measure_lot(lot, rng);
    raw.fingerprints(3, 2) = kNan;  // one channel: imputable
    raw.pcms(5, 0) = kNan;          // PCM loss: device quarantined
    const MeasurementValidator validator;
    const IngestResult result = validator.sanitize(raw);
    EXPECT_EQ(result.summary.devices_kept, 11u);
    EXPECT_EQ(result.summary.devices_dropped, 1u);
    EXPECT_EQ(result.summary.channels_imputed, 1u);
    EXPECT_EQ(result.summary.nonfinite_cells, 2u);
    ASSERT_EQ(result.dropped_indices.size(), 1u);
    EXPECT_EQ(result.dropped_indices[0], 5u);
    for (std::size_t r = 0; r < result.dataset.fingerprints.rows(); ++r) {
        for (std::size_t c = 0; c < result.dataset.fingerprints.cols(); ++c) {
            EXPECT_TRUE(std::isfinite(result.dataset.fingerprints(r, c)));
        }
    }
}

TEST(Validator, SanitizeRejectsLotBelowDeviceFloor) {
    const StubSource source(2, 6);
    const FabricatedLot lot = stub_lot(4);  // < min_devices = 8
    Rng rng(7);
    const htd::silicon::DuttDataset raw =
        static_cast<const MeasurementSource&>(source).measure_lot(lot, rng);
    const MeasurementValidator validator;
    EXPECT_THROW((void)validator.sanitize(raw), DataQualityError);
}

TEST(Validator, RetryRecoversFlakyFirstContacts) {
    const FlakyFirstContact source(2, 6);
    const FabricatedLot lot = stub_lot(12);
    const MeasurementValidator validator;
    Rng rng(8);
    const IngestResult result = validator.ingest(lot, source, rng);
    EXPECT_EQ(result.summary.devices_kept, 12u);
    EXPECT_EQ(result.summary.devices_dropped, 0u);
    EXPECT_EQ(result.summary.devices_retried, 12u);
    EXPECT_GE(result.summary.retries_used, 12u);
    EXPECT_EQ(result.summary.channels_imputed, 0u);
}

TEST(Validator, IngestsFaultyRealBenchWithoutCrashing) {
    htd::core::ExperimentConfig config;
    config.n_chips = 10;
    const htd::core::ProcessPair processes =
        htd::core::make_process_pair(config.process_shift_sigma);
    const htd::silicon::Fab fab(processes.silicon);
    Rng fab_rng(9);
    const FabricatedLot lot = fab.fabricate_lot(fab_rng, config.n_chips);
    const htd::silicon::MeasurementBench bench(config.platform);
    FaultModel model;
    model.nan_dropout_rate = 0.05;
    model.spike_rate = 0.02;
    const FaultyBench faulty(bench, model);
    const MeasurementValidator validator;
    Rng rng(10);
    const IngestResult result = validator.ingest(lot, faulty, rng);
    EXPECT_GE(result.summary.devices_kept, validator.policy().min_devices);
    EXPECT_GT(faulty.stats().total_faults(), 0u);
    for (std::size_t r = 0; r < result.dataset.size(); ++r) {
        for (std::size_t c = 0; c < result.dataset.fingerprints.cols(); ++c) {
            EXPECT_TRUE(std::isfinite(result.dataset.fingerprints(r, c)));
        }
        for (std::size_t c = 0; c < result.dataset.pcms.cols(); ++c) {
            EXPECT_TRUE(std::isfinite(result.dataset.pcms(r, c)));
        }
    }
}

// --- Pipeline degradation -------------------------------------------------------

PipelineConfig small_config() {
    PipelineConfig cfg;
    cfg.monte_carlo_samples = 40;
    cfg.synthetic_samples = 2000;
    return cfg;
}

htd::silicon::SpiceSimulator make_simulator() {
    const auto pair = htd::core::make_process_pair(4.5);
    return {htd::silicon::PlatformConfig::paper_default(), pair.spice};
}

Matrix measured_pcms(std::size_t n_chips, std::uint64_t seed) {
    htd::core::ExperimentConfig exp_cfg;
    exp_cfg.n_chips = n_chips;
    Rng fab_rng(seed);
    return htd::core::fabricate_and_measure(exp_cfg, fab_rng).pcms;
}

TEST(Degradation, KmmCollapseFallsBackToB3) {
    PipelineConfig cfg = small_config();
    cfg.kmm_min_effective_sample_size = 1e9;  // unreachable: force collapse
    GoldenFreePipeline pipeline(cfg, make_simulator());
    Rng rng(11);
    pipeline.run_premanufacturing(rng);
    const Matrix pcms = measured_pcms(10, 12);
    EXPECT_NO_THROW(pipeline.run_silicon_stage(pcms, rng));

    EXPECT_TRUE(pipeline.kmm_fallback_applied());
    EXPECT_TRUE(std::isfinite(pipeline.kmm_effective_sample_size()));
    EXPECT_EQ(pipeline.boundary_status(Boundary::kB4).health,
              BoundaryHealth::kDegraded);
    EXPECT_EQ(pipeline.boundary_status(Boundary::kB5).health,
              BoundaryHealth::kDegraded);
    EXPECT_TRUE(pipeline.boundary_ready(Boundary::kB4));
    // B4 trained on S3 verbatim.
    const Matrix& s3 = pipeline.dataset(Boundary::kB3);
    const Matrix& s4 = pipeline.dataset(Boundary::kB4);
    ASSERT_EQ(s4.rows(), s3.rows());
    EXPECT_DOUBLE_EQ(s4(0, 0), s3(0, 0));

    const htd::io::Json report = pipeline.degradation_report();
    EXPECT_TRUE(report.at("kmm_fallback_to_b3").boolean());
    EXPECT_EQ(report.at("boundaries").at(3).at("health").str(), "degraded");
}

TEST(Degradation, HealthyRunReportsAllBoundariesHealthy) {
    GoldenFreePipeline pipeline(small_config(), make_simulator());
    Rng rng(15);
    pipeline.run_premanufacturing(rng);
    pipeline.run_silicon_stage(measured_pcms(10, 16), rng);
    for (const Boundary b : htd::core::kAllBoundaries) {
        EXPECT_EQ(pipeline.boundary_status(b).health, BoundaryHealth::kHealthy)
            << htd::core::boundary_name(b);
    }
    EXPECT_FALSE(pipeline.kmm_fallback_applied());
    EXPECT_GE(pipeline.kmm_effective_sample_size(), 4.0);
}

TEST(Degradation, ClassifyRejectsBadProbes) {
    GoldenFreePipeline pipeline(small_config(), make_simulator());
    Rng rng(17);
    pipeline.run_premanufacturing(rng);
    EXPECT_THROW((void)pipeline.classify(Boundary::kB1, Matrix(2, 3, 0.0)),
                 DimensionError);
    Matrix bad(2, 6, -30.0);
    bad(1, 4) = kNan;
    EXPECT_THROW((void)pipeline.classify(Boundary::kB1, bad), DataQualityError);
}

}  // namespace
