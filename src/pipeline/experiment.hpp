#pragma once
/// \file experiment.hpp
/// End-to-end experiment driver reproducing the paper's evaluation: build
/// the silicon process and the stale Spice model, fabricate and measure the
/// 40 x 3 DUTT population, run the golden-free pipeline, and score every
/// boundary — i.e. regenerate Table 1 (and the populations behind Fig. 4).

#include <array>
#include <cstdint>
#include <memory>

#include "pipeline/pipeline.hpp"
#include "process/variation_model.hpp"
#include "silicon/bench_measure.hpp"
#include "silicon/fab.hpp"
#include "silicon/platform.hpp"

namespace htd::core {

/// Everything needed to run one full experiment.
struct ExperimentConfig {
    /// Master seed; every stochastic stage derives an independent stream.
    std::uint64_t seed = 0xda14'5eedULL;

    /// Fabricated chips (each hosting 3 design versions -> 3x devices).
    std::size_t n_chips = 40;

    /// Platform (key, blocks, Trojan strengths, analog models).
    silicon::PlatformConfig platform = silicon::PlatformConfig::paper_default();

    /// Foundry drift relative to the Spice model, in sigmas along the slow
    /// corner (see ProcessShift::slow_corner). This is the discrepancy that
    /// defeats boundaries B1/B2.
    double process_shift_sigma = 4.5;

    /// Fabrication options (wafer count, within-die mismatch).
    silicon::Fab::Options fab{};

    /// Detection pipeline options.
    PipelineConfig pipeline{};
};

/// Outputs of one full experiment run.
struct ExperimentResult {
    /// Measured DUTT population (fingerprints, PCMs, ground truth).
    silicon::DuttDataset measured;

    /// The pipeline fitted on `measured.pcms` (both stages run). Held by
    /// pointer because a GoldenFreePipeline cannot be moved.
    std::unique_ptr<GoldenFreePipeline> pipeline;

    /// Table 1: FP/FN of B1..B5 in pipeline order.
    std::array<ml::DetectionMetrics, 5> table1;

    /// The golden-chip baseline of [12] (Fig. 1) on the same population.
    ml::DetectionMetrics golden_baseline;
};

/// Run the full experiment: measure_lot, calibrate_pipeline on its PCMs,
/// then score every boundary and the golden-chip baseline. This is the
/// programmatic equivalent of the paper's Section 3 and the engine behind
/// bench_table1 / bench_fig4.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config);

/// The stream-split contract. Every experiment draws its randomness from
/// Rng(config.seed), split in this order: `fab` fabricates and measures the
/// lot, `sim` runs stage 1 (Monte Carlo), `pipe` runs stage 2 (calibration
/// and KDE sampling), and `extra` is free for a study's own draws. The
/// order fixes every B-score, so it is written down only here.
struct ExperimentStreams {
    rng::Rng fab;
    rng::Rng sim;
    rng::Rng pipe;
    rng::Rng extra;
};
[[nodiscard]] ExperimentStreams experiment_streams(std::uint64_t seed);

/// Fabricate and measure the canonical lot of a config (the `fab` stream).
[[nodiscard]] silicon::DuttDataset measure_lot(const ExperimentConfig& config);

/// Build the golden-free pipeline on the config's stale Spice model and run
/// both stages on the given DUTT PCMs (the `sim` and `pipe` streams).
[[nodiscard]] std::unique_ptr<GoldenFreePipeline> calibrate_pipeline(
    const ExperimentConfig& config, const linalg::Matrix& dutt_pcms);

/// Construct the pieces individually (exposed for custom studies):

/// The silicon process = default 350 nm model; the Spice model = the same
/// process shifted *back* by the foundry drift (the foundry moved forward).
struct ProcessPair {
    process::ProcessVariationModel silicon;
    process::ProcessVariationModel spice;
};
[[nodiscard]] ProcessPair make_process_pair(double process_shift_sigma);

/// Fabricate the config's lot of n_chips dies on the silicon process with
/// the config's Fab options, without measuring it (a study that measures
/// through its own tester, such as a faulty one, starts here).
[[nodiscard]] silicon::FabricatedLot fabricate_lot(const ExperimentConfig& config,
                                                   rng::Rng& rng);

/// Fabricate and measure the DUTT population for a config: fabricate_lot,
/// then the config's measurement bench on the same stream.
[[nodiscard]] silicon::DuttDataset fabricate_and_measure(const ExperimentConfig& config,
                                                         rng::Rng& rng);

}  // namespace htd::core
