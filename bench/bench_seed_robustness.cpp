/// \file bench_seed_robustness.cpp
/// The detector across lots: reruns the Table-1 experiment on 100 fresh
/// fabrication lots (seeds 1001..1100, 2000 KDE draws) and reports, for each
/// boundary and for the golden-chip baseline, how many lots admit a
/// Trojan-infested device (FP > 0), the mean FP/80 and FN/40, and how many
/// lots reject each number of Trojan-free devices (the FN histogram, which
/// tells a few bad lots from many mildly worse ones at the same mean). The
/// paper reports a single fabricated lot; the virtual fab can report the
/// rate.
///
/// Every lot's verdicts repeat exactly for its seed, so BENCH_seed_robustness
/// gates each of those numbers exactly (rel 0, abs 0): any lot that starts
/// admitting a Trojan, and any extra false negative, fails the bench gate.

#include <cstdio>
#include <string>
#include <vector>

#include "io/table.hpp"
#include "obs/run_report.hpp"
#include "pipeline/experiment.hpp"

namespace {

struct Tally {
    std::size_t fp_lots = 0;
    std::size_t fp_sum = 0;
    std::size_t fn_sum = 0;
    /// fn_lots[k]: lots with k false negatives (k = 0..n_chips).
    std::vector<std::size_t> fn_lots;

    explicit Tally(std::size_t n_chips) : fn_lots(n_chips + 1, 0) {}

    void add(const htd::ml::DetectionMetrics& m) {
        fp_lots += m.false_positives > 0 ? 1 : 0;
        fp_sum += m.false_positives;
        fn_sum += m.false_negatives;
        ++fn_lots.at(m.false_negatives);
    }
};

}  // namespace

int main() {
    using namespace htd;

    constexpr std::uint64_t kFirstSeed = 1001;
    constexpr std::size_t kLots = 100;
    constexpr std::size_t kDraws = 2000;

    const std::size_t n_chips = core::ExperimentConfig{}.n_chips;
    std::vector<Tally> boundaries(core::kAllBoundaries.size(), Tally(n_chips));
    Tally golden(n_chips);
    for (std::size_t lot = 0; lot < kLots; ++lot) {
        core::ExperimentConfig cfg;
        cfg.seed = kFirstSeed + lot;
        cfg.pipeline.synthetic_samples = kDraws;
        const core::ExperimentResult r = core::run_experiment(cfg);
        for (std::size_t i = 0; i < boundaries.size(); ++i) {
            boundaries[i].add(r.table1[i]);
        }
        golden.add(r.golden_baseline);
    }

    std::printf("Table 1 across %zu lots (seeds %llu..%llu, %zu KDE draws)\n\n", kLots,
                static_cast<unsigned long long>(kFirstSeed),
                static_cast<unsigned long long>(kFirstSeed + kLots - 1), kDraws);
    io::Table table({"boundary", "lots FP>0", "mean FP/80", "mean FN/40"});
    io::Json rows = io::Json::object();
    io::Json gate = io::Json::array();
    std::string histograms;
    const double n = static_cast<double>(kLots);
    const auto add_row = [&](const std::string& label, const std::string& key,
                             const Tally& t) {
        const double mean_fp = static_cast<double>(t.fp_sum) / n;
        const double mean_fn = static_cast<double>(t.fn_sum) / n;
        table.add_row({label, std::to_string(t.fp_lots) + "/" + std::to_string(kLots),
                       io::fmt(mean_fp, 2), io::fmt(mean_fn, 2)});
        io::Json row = io::Json::object();
        row.set("fp_lots", t.fp_lots);
        row.set("mean_fp", mean_fp);
        row.set("mean_fn", mean_fn);
        io::Json fn_lots = io::Json::array();
        histograms.append("  ").append(label).append(":");
        for (std::size_t k = 0; k < t.fn_lots.size(); ++k) {
            fn_lots.push_back(t.fn_lots[k]);
            if (t.fn_lots[k] > 0) {
                histograms.append(" ").append(std::to_string(k)).append("x");
                histograms.append(std::to_string(t.fn_lots[k]));
            }
        }
        histograms.append("\n");
        row.set("fn_lots", std::move(fn_lots));
        rows.set(key, std::move(row));
        gate.push_back(obs::gate_record(key + ".fp_lots", static_cast<double>(t.fp_lots),
                                        obs::Better::kLower, 0.0, 0.0));
        gate.push_back(obs::gate_record(key + ".mean_fp", mean_fp, obs::Better::kLower,
                                        0.0, 0.0));
        gate.push_back(obs::gate_record(key + ".mean_fn", mean_fn, obs::Better::kLower,
                                        0.0, 0.0));
    };
    for (std::size_t i = 0; i < boundaries.size(); ++i) {
        const std::string name = core::boundary_name(core::kAllBoundaries[i]);
        add_row(name, name, boundaries[i]);
    }
    add_row("golden baseline", "golden_baseline", golden);
    std::printf("%s\n", table.str().c_str());
    std::printf("FN histogram over the lots, as <FN/%zu>x<lots>:\n%s\n", n_chips,
                histograms.c_str());
    std::printf("paper reference (one lot): FP 0/80 for every boundary; FN S1 40/40,\n");
    std::printf("S2 40/40, S3 24/40, S4 18/40, S5 3/40\n");

    io::Json payload = io::Json::object();
    payload.set("first_seed", static_cast<double>(kFirstSeed));
    payload.set("lots", kLots);
    payload.set("synthetic_samples", kDraws);
    payload.set("boundaries", std::move(rows));
    const std::string path =
        obs::write_bench_report("seed_robustness", std::move(payload), std::move(gate));
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
