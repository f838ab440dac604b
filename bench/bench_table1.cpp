/// \file bench_table1.cpp
/// Reproduces Table 1 of the paper: FP/FN of the five trusted-region
/// boundaries B1..B5 on the 40 Trojan-free + 80 Trojan-infested devices.
///
/// Paper reference values (DAC'14, Table 1):
///   S1: FP 0/80  FN 40/40
///   S2: FP 0/80  FN 40/40
///   S3: FP 0/80  FN 24/40
///   S4: FP 0/80  FN 18/40
///   S5: FP 0/80  FN  3/40

#include <cstdio>

#include "pipeline/experiment.hpp"
#include "io/table.hpp"

int main() {
    using namespace htd;

    core::ExperimentConfig config;
    const core::ExperimentResult result = core::run_experiment(config);

    std::printf("Table 1: Trojan detection metrics for each data set\n");
    std::printf("(paper: S1 FN 40/40, S2 FN 40/40, S3 FN 24/40, S4 FN 18/40, S5 FN 3/40; FP 0/80 throughout)\n\n");

    io::Table table({"Data set", "FP", "FN", "FP rate", "FN rate"});
    for (std::size_t i = 0; i < core::kAllBoundaries.size(); ++i) {
        const auto& m = result.table1[i];
        table.add_row({core::dataset_name(core::kAllBoundaries[i]),
                       io::fmt_ratio(m.false_positives, m.trojan_infested_total),
                       io::fmt_ratio(m.false_negatives, m.trojan_free_total),
                       io::fmt(m.false_positive_rate(), 3),
                       io::fmt(m.false_negative_rate(), 3)});
    }
    std::printf("%s\n", table.str().c_str());

    std::printf("Golden-chip baseline [12] (reference): %s\n",
                result.golden_baseline.str().c_str());
    std::printf("MARS mean training R^2: %.4f\n",
                result.pipeline->regressions().mean_r_squared());
    std::printf("Kernel-mean-shift iterations: %zu\n",
                result.pipeline->calibration_result()->iterations);
    return 0;
}
