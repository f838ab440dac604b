/// \file wireless_crypto_audit.cpp
/// The paper's full scenario as a security-audit workflow: a batch of 40
/// chips (each hosting the Trojan-free design and two Trojan-infested
/// versions, 120 devices total) comes back from an untrusted foundry. The
/// auditor has the trusted design database (Spice model) and the tester's
/// PCM + transmit-power measurements, and must decide per device whether it
/// is Trojan-infested — without a single golden chip.
///
/// The audit report shows every stage of the decision: all five boundaries'
/// verdicts per device, the per-boundary summary, and a CSV export.

#include <cstdio>
#include <string>

#include "pipeline/experiment.hpp"
#include "pipeline/report.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"

int main() {
    using namespace htd;

    core::ExperimentConfig config;  // the paper's 40-chip batch

    std::printf("=== Wireless cryptographic IC audit ===\n");
    std::printf("batch: %zu chips x 3 design versions = %zu devices under test\n",
                config.n_chips, 3 * config.n_chips);
    std::printf("root of trust: design database + on-die PCMs (no golden chips)\n\n");

    // The canonical experiment: measure the lot, run both pipeline stages,
    // score Table 1. The stages below read the fitted pipeline.
    const core::ExperimentResult result = core::run_experiment(config);
    const silicon::DuttDataset& devices = result.measured;
    const core::GoldenFreePipeline& pipeline = *result.pipeline;

    std::printf("[stage 1] pre-manufacturing: Monte Carlo of %zu golden devices,\n",
                config.pipeline.monte_carlo_samples);
    std::printf("          MARS bank g : PCM -> fingerprints, boundaries B1/B2\n");
    std::printf("          mean regression R^2 = %.3f\n\n",
                pipeline.regressions().mean_r_squared());

    std::printf("[stage 2] silicon measurement: PCM calibration + boundaries B3..B5\n");
    std::printf("          kernel-mean-shift iterations: %zu\n\n",
                pipeline.calibration_result()->iterations);

    std::printf("[stage 3] Trojan test\n\n");
    std::array<std::vector<bool>, 5> verdicts;
    for (std::size_t b = 0; b < 5; ++b) {
        verdicts[b] =
            pipeline.classify(core::kAllBoundaries[b], devices.fingerprints);
    }

    // Per-boundary summary.
    io::Table summary({"boundary", "FP (missed Trojans)", "FN (false alarms)",
                       "accuracy"});
    for (std::size_t b = 0; b < 5; ++b) {
        const auto& m = result.table1[b];
        summary.add_row({core::boundary_name(core::kAllBoundaries[b]),
                         io::fmt_ratio(m.false_positives, m.trojan_infested_total),
                         io::fmt_ratio(m.false_negatives, m.trojan_free_total),
                         io::fmt(m.accuracy(), 3)});
    }
    std::printf("%s\n", summary.str().c_str());

    // Devices flagged by the recommended boundary (B5).
    std::printf("devices flagged Trojan-infested by B5:\n ");
    std::size_t flagged = 0;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        if (!verdicts[4][i]) {
            std::printf(" %zu", i);
            ++flagged;
        }
    }
    std::printf("\n  (%zu of %zu; ground truth has %zu Trojan-infested)\n\n", flagged,
                devices.size(), devices.size() - devices.trojan_free_indices().size());

    // CSV export: one row per device with PCM, fingerprints, all verdicts.
    linalg::Matrix report(devices.size(), 1 + devices.pcms.cols() +
                                              devices.fingerprints.cols() + 5);
    for (std::size_t i = 0; i < devices.size(); ++i) {
        std::size_t c = 0;
        report(i, c++) =
            devices.variants[i] == trojan::DesignVariant::kTrojanFree ? 0.0 : 1.0;
        for (std::size_t p = 0; p < devices.pcms.cols(); ++p) {
            report(i, c++) = devices.pcms(i, p);
        }
        for (std::size_t f = 0; f < devices.fingerprints.cols(); ++f) {
            report(i, c++) = devices.fingerprints(i, f);
        }
        for (std::size_t b = 0; b < 5; ++b) {
            report(i, c++) = verdicts[b][i] ? 0.0 : 1.0;  // 1 = flagged
        }
    }
    std::vector<std::string> header{"is_trojan", "pcm_delay_ns"};
    for (int f = 1; f <= 6; ++f) header.push_back("fp_m" + std::to_string(f) + "_dbm");
    for (int b = 1; b <= 5; ++b) header.push_back("flagged_B" + std::to_string(b));
    io::write_csv("audit_report.csv", report, header);
    std::printf("wrote audit_report.csv (one row per device)\n");

    // Machine-readable summary for archiving / regression tracking.
    core::write_experiment_report("audit_report.json", config, result);
    std::printf("wrote audit_report.json (Table-1 metrics + diagnostics)\n");
    return 0;
}
