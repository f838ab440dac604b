/// Tests for the virtual fab, the platform config, the measurement bench and
/// the Spice simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pipeline/experiment.hpp"
#include "stats/descriptive.hpp"
#include "silicon/bench_measure.hpp"
#include "silicon/fab.hpp"
#include "silicon/platform.hpp"

namespace {

using htd::process::ProcessVariationModel;
using htd::rng::Rng;
using htd::silicon::DuttDataset;
using htd::silicon::Fab;
using htd::silicon::FabricatedLot;
using htd::silicon::MeasurementBench;
using htd::silicon::PlatformConfig;
using htd::silicon::SpiceSimulator;
using htd::trojan::DesignVariant;

TEST(Platform, PaperDefaultShape) {
    const PlatformConfig cfg = PlatformConfig::paper_default();
    EXPECT_EQ(cfg.fingerprint_dim(), 6u);  // nm = 6
    EXPECT_EQ(cfg.pcm_dim(), 1u);          // np = 1
    EXPECT_EQ(cfg.plaintext_blocks.size(), 6u);
}

TEST(Platform, SeedControlsKeyAndBlocks) {
    const PlatformConfig a = PlatformConfig::paper_default(1);
    const PlatformConfig b = PlatformConfig::paper_default(1);
    const PlatformConfig c = PlatformConfig::paper_default(2);
    EXPECT_EQ(a.aes_key, b.aes_key);
    EXPECT_NE(a.aes_key, c.aes_key);
}

TEST(Platform, CiphertextBitsMatchAes) {
    const PlatformConfig cfg = PlatformConfig::paper_default();
    const auto bits = cfg.ciphertext_bits();
    ASSERT_EQ(bits.size(), 6u);
    const htd::crypto::Aes aes(cfg.aes_key);
    const auto expected =
        htd::crypto::block_to_bits(aes.encrypt(cfg.plaintext_blocks[0]));
    EXPECT_EQ(bits[0], expected);
}

TEST(Platform, RingOscillatorExtendsPcmDim) {
    PlatformConfig cfg = PlatformConfig::paper_default();
    cfg.include_ring_oscillator = true;
    EXPECT_EQ(cfg.pcm_dim(), 2u);
}

// --- fab -------------------------------------------------------------------------

TEST(FabTest, RejectsBadOptions) {
    Fab::Options opts;
    opts.wafers = 0;
    EXPECT_THROW(Fab(ProcessVariationModel::default_350nm(), opts),
                 std::invalid_argument);
    Fab fab(ProcessVariationModel::default_350nm());
    Rng rng(1);
    EXPECT_THROW((void)fab.fabricate_lot(rng, 0), std::invalid_argument);
}

TEST(FabTest, ThreeVersionsPerChipInOrder) {
    const Fab fab(ProcessVariationModel::default_350nm());
    Rng rng(2);
    const FabricatedLot lot = fab.fabricate_lot(rng, 40);
    ASSERT_EQ(lot.devices.size(), 120u);
    EXPECT_EQ(lot.chip_count(), 40u);
    for (std::size_t chip = 0; chip < 40; ++chip) {
        EXPECT_EQ(lot.devices[3 * chip].variant, DesignVariant::kTrojanFree);
        EXPECT_EQ(lot.devices[3 * chip + 1].variant, DesignVariant::kTrojanAmplitude);
        EXPECT_EQ(lot.devices[3 * chip + 2].variant, DesignVariant::kTrojanFrequency);
        EXPECT_EQ(lot.devices[3 * chip].chip_id, chip);
    }
}

TEST(FabTest, ChipCountFollowsDistinctChips) {
    const Fab fab(ProcessVariationModel::default_350nm());
    Rng rng(7);
    FabricatedLot lot = fab.fabricate_lot(rng, 5);
    EXPECT_EQ(lot.chip_count(), 5u);
    // A filtered lot no longer carries three versions of every chip; the
    // count must follow the distinct chip ids, not devices.size() / 3.
    lot.devices.erase(lot.devices.begin() + 1, lot.devices.begin() + 3);
    EXPECT_EQ(lot.devices.size(), 13u);
    EXPECT_EQ(lot.chip_count(), 5u);
    lot.devices.erase(lot.devices.begin());  // chip 0 fully gone
    EXPECT_EQ(lot.chip_count(), 4u);
    lot.devices.clear();
    EXPECT_EQ(lot.chip_count(), 0u);
}

TEST(FabTest, VersionsShareDieProcessClosely) {
    const Fab fab(ProcessVariationModel::default_350nm());
    Rng rng(3);
    const FabricatedLot lot = fab.fabricate_lot(rng, 10);
    const auto mu_idx = static_cast<std::size_t>(htd::process::Param::kMuN);
    const double full_sigma = fab.process_model().sigma()[mu_idx];
    for (std::size_t chip = 0; chip < 10; ++chip) {
        const double a = lot.devices[3 * chip].point.mu_n();
        const double b = lot.devices[3 * chip + 1].point.mu_n();
        // Versions differ by within-die mismatch only, far below full spread.
        EXPECT_LT(std::abs(a - b), full_sigma);
    }
}

TEST(FabTest, WaferAssignmentCoversConfiguredWafers) {
    Fab::Options opts;
    opts.wafers = 4;
    const Fab fab(ProcessVariationModel::default_350nm(), opts);
    Rng rng(4);
    const FabricatedLot lot = fab.fabricate_lot(rng, 20);
    EXPECT_EQ(lot.wafer_offsets.size(), 4u);
    std::size_t max_wafer = 0;
    for (const auto& d : lot.devices) max_wafer = std::max(max_wafer, d.wafer_id);
    EXPECT_EQ(max_wafer, 3u);
}

TEST(FabTest, LotsDifferAcrossRuns) {
    const Fab fab(ProcessVariationModel::default_350nm());
    Rng rng(5);
    const FabricatedLot a = fab.fabricate_lot(rng, 5);
    const FabricatedLot b = fab.fabricate_lot(rng, 5);
    EXPECT_NE(a.devices[0].point, b.devices[0].point);
}

// --- bench -----------------------------------------------------------------------

TEST(Bench, RejectsEmptyPlatform) {
    PlatformConfig cfg = PlatformConfig::paper_default();
    cfg.plaintext_blocks.clear();
    EXPECT_THROW(MeasurementBench{cfg}, std::invalid_argument);
}

TEST(Bench, MeasurementShapes) {
    const PlatformConfig cfg = PlatformConfig::paper_default();
    const MeasurementBench bench(cfg);
    const Fab fab(ProcessVariationModel::default_350nm());
    Rng rng(6);
    const FabricatedLot lot = fab.fabricate_lot(rng, 4);
    const DuttDataset ds = bench.measure_lot(lot, rng);
    EXPECT_EQ(ds.size(), 12u);
    EXPECT_EQ(ds.fingerprints.rows(), 12u);
    EXPECT_EQ(ds.fingerprints.cols(), 6u);
    EXPECT_EQ(ds.pcms.rows(), 12u);
    EXPECT_EQ(ds.pcms.cols(), 1u);
}

TEST(Bench, LabelsMatchVariants) {
    const PlatformConfig cfg = PlatformConfig::paper_default();
    const MeasurementBench bench(cfg);
    const Fab fab(ProcessVariationModel::default_350nm());
    Rng rng(7);
    const DuttDataset ds = bench.measure_lot(fab.fabricate_lot(rng, 3), rng);
    const auto labels = ds.labels();
    ASSERT_EQ(labels.size(), 9u);
    EXPECT_EQ(labels[0], htd::ml::DeviceLabel::kTrojanFree);
    EXPECT_EQ(labels[1], htd::ml::DeviceLabel::kTrojanInfested);
    EXPECT_EQ(labels[2], htd::ml::DeviceLabel::kTrojanInfested);
    EXPECT_EQ(ds.trojan_free_indices(), (std::vector<std::size_t>{0, 3, 6}));
}

TEST(Bench, AmplitudeTrojanRaisesMeasuredPower) {
    const PlatformConfig cfg = PlatformConfig::paper_default();
    const MeasurementBench bench(cfg);
    const Fab fab(ProcessVariationModel::default_350nm());
    Rng rng(8);
    const FabricatedLot lot = fab.fabricate_lot(rng, 20);
    double tf_sum = 0.0, amp_sum = 0.0;
    for (std::size_t chip = 0; chip < 20; ++chip) {
        tf_sum += bench.measure_fingerprint(lot.devices[3 * chip], rng).mean();
        amp_sum += bench.measure_fingerprint(lot.devices[3 * chip + 1], rng).mean();
    }
    EXPECT_GT(amp_sum / 20.0, tf_sum / 20.0 + 0.3);  // ~+1 dB expected
}

TEST(Bench, CaptureTransmissionValidatesIndex) {
    const PlatformConfig cfg = PlatformConfig::paper_default();
    const MeasurementBench bench(cfg);
    const Fab fab(ProcessVariationModel::default_350nm());
    Rng rng(9);
    const FabricatedLot lot = fab.fabricate_lot(rng, 1);
    EXPECT_EQ(bench.capture_transmission(lot.devices[0], 0).size(), 128u);
    EXPECT_THROW((void)bench.capture_transmission(lot.devices[0], 6),
                 std::out_of_range);
}

TEST(Bench, PcmNoiseIsSmallRelative) {
    PlatformConfig cfg = PlatformConfig::paper_default();
    const MeasurementBench bench(cfg);
    const Fab fab(ProcessVariationModel::default_350nm());
    Rng rng(10);
    const FabricatedLot lot = fab.fabricate_lot(rng, 1);
    const double a = bench.measure_pcm(lot.devices[0], rng)[0];
    const double b = bench.measure_pcm(lot.devices[0], rng)[0];
    EXPECT_NE(a, b);                       // jitter present
    EXPECT_NEAR(a, b, 0.05 * a);           // but small
}

// --- spice simulator -----------------------------------------------------------------

TEST(Simulator, GoldenDataShapes) {
    const PlatformConfig cfg = PlatformConfig::paper_default();
    const SpiceSimulator sim(cfg, ProcessVariationModel::default_350nm());
    Rng rng(11);
    const auto golden = sim.simulate_golden(rng, 50);
    EXPECT_EQ(golden.pcms.rows(), 50u);
    EXPECT_EQ(golden.pcms.cols(), 1u);
    EXPECT_EQ(golden.fingerprints.rows(), 50u);
    EXPECT_EQ(golden.fingerprints.cols(), 6u);
    EXPECT_THROW((void)sim.simulate_golden(rng, 0), std::invalid_argument);
}

TEST(Simulator, NoiseFreeAtFixedPoint) {
    const PlatformConfig cfg = PlatformConfig::paper_default();
    const SpiceSimulator sim(cfg, ProcessVariationModel::default_350nm());
    const auto pp = htd::process::nominal_350nm();
    EXPECT_EQ(sim.fingerprint_at(pp), sim.fingerprint_at(pp));
    EXPECT_EQ(sim.pcm_at(pp), sim.pcm_at(pp));
}

TEST(Simulator, StaleModelShiftsPopulations) {
    // The shifted (slow) Spice model predicts slower PCMs and weaker
    // fingerprints than the actual silicon process.
    const auto pair = htd::core::make_process_pair(4.5);
    const PlatformConfig cfg = PlatformConfig::paper_default();
    const SpiceSimulator spice_sim(cfg, pair.spice);
    const SpiceSimulator silicon_sim(cfg, pair.silicon);
    Rng rng_a(12);
    Rng rng_b(12);
    const auto spice = spice_sim.simulate_golden(rng_a, 100);
    const auto silicon = silicon_sim.simulate_golden(rng_b, 100);
    EXPECT_GT(htd::stats::column_means(spice.pcms)[0],
              htd::stats::column_means(silicon.pcms)[0]);
    EXPECT_LT(htd::stats::column_means(spice.fingerprints)[0],
              htd::stats::column_means(silicon.fingerprints)[0]);
}

TEST(Simulator, PowerChannelsAreOneChannelPlusConstantDbOffsets) {
    // Every transmitted pulse of a block copies the same base amplitude,
    // tau and frequency, so a Trojan-free block's noise-free power is
    // (ones in the block / 128) x the per-pulse power P of the process
    // point. In dBm the six S1 channels are one channel, 10 log10 P, plus
    // constant offsets 10 log10(ones_b / ones_0): the channel differences
    // must not move when the process point does.
    const PlatformConfig cfg = PlatformConfig::paper_default();
    const ProcessVariationModel model = ProcessVariationModel::default_350nm();
    const SpiceSimulator sim(cfg, model);
    Rng rng(31);
    const auto nominal = sim.fingerprint_at(htd::process::nominal_350nm());
    const auto sampled = sim.fingerprint_at(model.sample_monte_carlo(rng));
    const auto bits = cfg.ciphertext_bits();
    ASSERT_EQ(nominal.size(), bits.size());
    ASSERT_EQ(sampled.size(), bits.size());
    // The process point does move the common level.
    EXPECT_GT(std::abs(nominal[0] - sampled[0]), 1e-3);

    const auto ones = [&bits](std::size_t b) {
        return static_cast<double>(std::count(bits[b].begin(), bits[b].end(), true));
    };
    for (std::size_t b = 1; b < bits.size(); ++b) {
        const double offset_db = 10.0 * std::log10(ones(b) / ones(0));
        EXPECT_NEAR(nominal[b] - nominal[0], offset_db, 1e-9) << "channel " << b;
        EXPECT_NEAR(sampled[b] - sampled[0], offset_db, 1e-9) << "channel " << b;
    }
}

TEST(Simulator, FingerprintsAtReportsAllBlocks) {
    PlatformConfig cfg = PlatformConfig::paper_default();
    cfg.include_ring_oscillator = true;
    const SpiceSimulator sim(cfg, ProcessVariationModel::default_350nm());
    const auto pp = htd::process::nominal_350nm();
    EXPECT_EQ(sim.fingerprint_at(pp).size(), 6u);
    EXPECT_EQ(sim.pcm_at(pp).size(), 2u);
}

}  // namespace

// --- wafer spatial signature (appended) --------------------------------------------

namespace {

TEST(WaferMap, SitesCoverUnitDisk) {
    const Fab fab(ProcessVariationModel::default_350nm());
    Rng rng(31);
    const FabricatedLot lot = fab.fabricate_lot(rng, 40);
    double max_r = 0.0;
    for (const auto& dev : lot.devices) {
        const double r = dev.site_radius();
        EXPECT_LE(r, 1.0 + 1e-9);
        max_r = std::max(max_r, r);
    }
    EXPECT_GT(max_r, 0.8);  // the layout reaches the wafer edge
}

TEST(WaferMap, RadialGradientSlowsEdgeChips) {
    Fab::Options opts;
    opts.radial_gradient_sigma = 1.5;  // exaggerated for a clear signal
    opts.within_die_fraction = 0.0;
    const Fab fab(ProcessVariationModel::default_350nm(), opts);
    Rng rng(32);
    const FabricatedLot lot = fab.fabricate_lot(rng, 200);
    // Regress mu_n against r^2: the configured gradient leans edge chips
    // toward the slow corner (lower mobility).
    std::vector<double> r2s, mus;
    for (std::size_t i = 0; i < lot.devices.size(); i += 3) {
        const auto& dev = lot.devices[i];
        r2s.push_back(dev.site_radius() * dev.site_radius());
        mus.push_back(dev.point.mu_n());
    }
    EXPECT_LT(htd::stats::pearson_correlation(r2s, mus), -0.3);
}

TEST(WaferMap, ZeroGradientRemovesRadialSignature) {
    Fab::Options opts;
    opts.radial_gradient_sigma = 0.0;
    opts.within_die_fraction = 0.0;
    const Fab fab(ProcessVariationModel::default_350nm(), opts);
    Rng rng(33);
    const FabricatedLot lot = fab.fabricate_lot(rng, 200);
    std::vector<double> r2s, mus;
    for (std::size_t i = 0; i < lot.devices.size(); i += 3) {
        r2s.push_back(lot.devices[i].site_radius() * lot.devices[i].site_radius());
        mus.push_back(lot.devices[i].point.mu_n());
    }
    EXPECT_NEAR(htd::stats::pearson_correlation(r2s, mus), 0.0, 0.2);
}

TEST(WaferMap, NegativeGradientRejected) {
    Fab::Options opts;
    opts.radial_gradient_sigma = -0.1;
    EXPECT_THROW(Fab(ProcessVariationModel::default_350nm(), opts),
                 std::invalid_argument);
}

}  // namespace
