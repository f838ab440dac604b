/// \file bench_golden_baseline.cpp
/// Experiment E3: the conventional golden-chip detector (Fig. 1 / reference
/// [12]) that the golden-free method is measured against. The paper's
/// premise is that a 1-class classifier trained on measured golden-IC
/// fingerprints separates the populations essentially perfectly; this
/// harness reproduces that result and sweeps the number of golden chips the
/// defender is assumed to possess.

#include <cstdio>

#include "pipeline/experiment.hpp"
#include "io/table.hpp"

int main() {
    using namespace htd;

    core::ExperimentConfig config;
    const silicon::DuttDataset measured = core::measure_lot(config);
    const auto tf_rows = measured.trojan_free_indices();

    std::printf("Golden-chip baseline (Fig. 1 / [12]): 1-class SVM on measured\n");
    std::printf("Trojan-free fingerprints, whitened feature space\n\n");

    io::Table table({"golden chips", "FP", "FN", "accuracy"});
    for (const std::size_t n_golden : {5, 10, 20, 30, 40}) {
        std::vector<std::size_t> subset(tf_rows.begin(),
                                        tf_rows.begin() + static_cast<long>(n_golden));
        ml::OneClassSvm::Options opts = config.pipeline.svm;
        opts.whiten = true;
        core::GoldenChipBaseline baseline(opts);
        baseline.fit(measured.fingerprints_at(subset));
        const ml::DetectionMetrics m = baseline.evaluate(measured);
        table.add_row({std::to_string(n_golden),
                       io::fmt_ratio(m.false_positives, m.trojan_infested_total),
                       io::fmt_ratio(m.false_negatives, m.trojan_free_total),
                       io::fmt(m.accuracy(), 3)});
    }
    std::printf("%s\n", table.str().c_str());

    std::printf(
        "Note: with all 40 golden chips the baseline separates the populations\n"
        "nearly perfectly, as reported by [12]; the golden-free pipeline's B5\n"
        "aims to match this without any golden chip (see bench_table1).\n");
    return 0;
}
