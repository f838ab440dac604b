/// \file bench_seed_robustness.cpp
/// The detector across lots: reruns the Table-1 experiment on 100 fresh
/// fabrication lots (seeds 1001..1100, 2000 KDE draws) and reports, for each
/// boundary and for the golden-chip baseline, how many lots admit a
/// Trojan-infested device (FP > 0) and the mean FP/80 and FN/40. The paper
/// reports a single fabricated lot; the virtual fab can report the rate.

#include <array>
#include <cstdio>

#include "pipeline/experiment.hpp"
#include "io/table.hpp"

namespace {

struct Tally {
    std::size_t fp_lots = 0;
    std::size_t fp_sum = 0;
    std::size_t fn_sum = 0;

    void add(const htd::ml::DetectionMetrics& m) {
        fp_lots += m.false_positives > 0 ? 1 : 0;
        fp_sum += m.false_positives;
        fn_sum += m.false_negatives;
    }
};

}  // namespace

int main() {
    using namespace htd;

    constexpr std::uint64_t kFirstSeed = 1001;
    constexpr std::size_t kLots = 100;

    std::array<Tally, 5> boundaries{};
    Tally golden;
    for (std::size_t lot = 0; lot < kLots; ++lot) {
        core::ExperimentConfig cfg;
        cfg.seed = kFirstSeed + lot;
        cfg.pipeline.synthetic_samples = 2000;
        const core::ExperimentResult r = core::run_experiment(cfg);
        for (std::size_t i = 0; i < boundaries.size(); ++i) {
            boundaries[i].add(r.table1[i]);
        }
        golden.add(r.golden_baseline);
    }

    std::printf("Table 1 across %zu lots (seeds %llu..%llu, 2000 KDE draws)\n\n", kLots,
                static_cast<unsigned long long>(kFirstSeed),
                static_cast<unsigned long long>(kFirstSeed + kLots - 1));
    io::Table table({"boundary", "lots FP>0", "mean FP/80", "mean FN/40"});
    const double n = static_cast<double>(kLots);
    const auto add_row = [&](const std::string& name, const Tally& t) {
        table.add_row({name, std::to_string(t.fp_lots) + "/" + std::to_string(kLots),
                       io::fmt(static_cast<double>(t.fp_sum) / n, 2),
                       io::fmt(static_cast<double>(t.fn_sum) / n, 2)});
    };
    for (std::size_t i = 0; i < boundaries.size(); ++i) {
        add_row(core::boundary_name(core::kAllBoundaries[i]), boundaries[i]);
    }
    add_row("golden baseline", golden);
    std::printf("%s\n", table.str().c_str());
    std::printf("paper reference (one lot): FP 0/80 for every boundary; FN S1 40/40,\n");
    std::printf("S2 40/40, S3 24/40, S4 18/40, S5 3/40\n");
    return 0;
}
