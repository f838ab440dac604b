/// \file bench_ablation_mc.cpp
/// Ablation E6: data budget. Sweeps the Monte Carlo golden-device count n
/// (the paper uses 100) and the synthetic population size M' (the paper
/// uses 1e5), reporting the full Table-1 row set.

#include <cstdio>

#include "pipeline/experiment.hpp"
#include "io/table.hpp"

namespace {

void add_rows(htd::io::Table& table, const std::string& label,
              const htd::core::ExperimentResult& r) {
    std::vector<std::string> cells{label};
    for (const auto& m : r.table1) {
        cells.push_back(htd::io::fmt_ratio(m.false_positives, 80) + " " +
                        htd::io::fmt_ratio(m.false_negatives, 40));
    }
    table.add_row(cells);
}

}  // namespace

int main() {
    using namespace htd;

    std::printf("Ablation: Monte Carlo sample count n and synthetic volume M'\n");
    std::printf("(cells are 'FP/80 FN/40')\n\n");

    io::Table table({"config", "S1", "S2", "S3", "S4", "S5"});
    for (const std::size_t n : {25u, 50u, 100u, 200u, 400u}) {
        core::ExperimentConfig cfg;
        cfg.pipeline.monte_carlo_samples = n;
        cfg.pipeline.synthetic_samples = 20000;
        add_rows(table, "n=" + std::to_string(n), core::run_experiment(cfg));
    }
    for (const std::size_t mprime : {1000u, 10000u, 100000u}) {
        core::ExperimentConfig cfg;
        cfg.pipeline.synthetic_samples = mprime;
        add_rows(table, "M'=" + std::to_string(mprime), core::run_experiment(cfg));
    }
    std::printf("%s", table.str().c_str());
    return 0;
}
