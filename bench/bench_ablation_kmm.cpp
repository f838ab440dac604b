/// \file bench_ablation_kmm.cpp
/// Ablation E4: how much the kernel-mean-shift calibration (Section 2.4)
/// contributes. Compares
///   (a) boundary from *uncalibrated* simulated PCMs pushed through g
///       (covariate shift uncorrected),
///   (b) mean-shift-only calibration (no KMM importance resampling), and
///   (c) the full pipeline's B4,
/// and sweeps the KMM weight bound B.

#include <cstdio>

#include "pipeline/experiment.hpp"
#include "io/table.hpp"
#include "ml/kmm.hpp"

namespace {

htd::ml::DetectionMetrics boundary_from(const htd::linalg::Matrix& dataset,
                                        const htd::ml::OneClassSvm::Options& opts,
                                        const htd::silicon::DuttDataset& measured) {
    htd::ml::OneClassSvm svm(opts);
    svm.fit(dataset);
    std::vector<bool> inside(measured.size());
    for (std::size_t i = 0; i < measured.size(); ++i) {
        inside[i] = svm.contains(measured.fingerprints.row(i));
    }
    return htd::ml::evaluate_detection(inside, measured.labels());
}

}  // namespace

int main() {
    using namespace htd;

    core::ExperimentConfig config;
    config.pipeline.synthetic_samples = 20000;
    const silicon::DuttDataset measured = core::measure_lot(config);
    const std::unique_ptr<core::GoldenFreePipeline> pipeline =
        core::calibrate_pipeline(config, measured.pcms);

    std::printf("Ablation: kernel-mean-shift calibration (stage behind S4/B4)\n\n");
    io::Table table({"variant", "FP", "FN"});

    // (a) no calibration at all: g applied to the raw simulated PCMs.
    const linalg::Matrix s4_uncal =
        pipeline->regressions().predict_batch(pipeline->simulated_pcms());
    const auto m_uncal = boundary_from(s4_uncal, config.pipeline.svm, measured);
    table.add_row({"no calibration",
                   io::fmt_ratio(m_uncal.false_positives, m_uncal.trojan_infested_total),
                   io::fmt_ratio(m_uncal.false_negatives, m_uncal.trojan_free_total)});

    // (b) mean-shift only: translate the simulated PCM cloud, no resampling.
    {
        const auto& calib = pipeline->calibration_result();
        linalg::Matrix shifted = pipeline->simulated_pcms();
        for (std::size_t r = 0; r < shifted.rows(); ++r) {
            auto row = shifted.row_span(r);
            for (std::size_t c = 0; c < row.size(); ++c) {
                row[c] += calib->total_shift[c];
            }
        }
        const linalg::Matrix s4_shift = pipeline->regressions().predict_batch(shifted);
        const auto m = boundary_from(s4_shift, config.pipeline.svm, measured);
        table.add_row({"mean shift only",
                       io::fmt_ratio(m.false_positives, m.trojan_infested_total),
                       io::fmt_ratio(m.false_negatives, m.trojan_free_total)});
    }

    // (c) full B4 (shift + KMM importance resampling).
    const auto m_b4 = pipeline->evaluate(core::Boundary::kB4, measured);
    table.add_row({"full B4 (shift + KMM resample)",
                   io::fmt_ratio(m_b4.false_positives, m_b4.trojan_infested_total),
                   io::fmt_ratio(m_b4.false_negatives, m_b4.trojan_free_total)});
    std::printf("%s\n", table.str().c_str());

    // Weight-bound sweep: B controls how aggressively KMM reweights.
    std::printf("KMM weight bound sweep (B4 metrics):\n");
    io::Table sweep({"B", "FP", "FN"});
    for (const double b : {1.5, 3.0, 5.0, 10.0, 100.0}) {
        core::ExperimentConfig cfg = config;
        cfg.pipeline.calibration.kmm.weight_bound = b;
        const core::ExperimentResult r = core::run_experiment(cfg);
        const auto& m = r.table1[3];
        sweep.add_row({io::fmt(b, 1),
                       io::fmt_ratio(m.false_positives, m.trojan_infested_total),
                       io::fmt_ratio(m.false_negatives, m.trojan_free_total)});
    }
    std::printf("%s", sweep.str().c_str());
    return 0;
}
