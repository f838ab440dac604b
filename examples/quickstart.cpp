/// \file quickstart.cpp
/// Minimal end-to-end use of the library:
///   1. describe the platform (key, fingerprint blocks, Trojan strengths),
///   2. fabricate and measure a small lot of devices under Trojan test,
///   3. run the golden chip-free pipeline (no trusted chips involved),
///   4. classify every device against the best boundary, B5,
///   5. write a structured RunReport (quickstart_run_report.json) with the
///      timed stage spans and per-boundary metrics.
///
/// Build & run:  ./build/examples/quickstart
/// Set HTD_OBS_TRACE=trace.json to also write the stage spans as a
/// Chrome/Perfetto trace.

#include <cstdio>

#include "obs/trace_export.hpp"
#include "pipeline/experiment.hpp"
#include "pipeline/report.hpp"

int main() {
    using namespace htd;

    // 1. Platform + experiment description. paper_default() gives the DAC'14
    //    setup: AES-128 + UWB transmitter, nm = 6 transmit-power
    //    fingerprints, np = 1 path-delay PCM.
    core::ExperimentConfig config;
    config.n_chips = 12;                         // small demo lot: 36 devices
    config.pipeline.synthetic_samples = 20000;   // faster than the paper's 1e5

    // 2. Fabricate and measure the devices under Trojan test. In a real
    //    deployment this is the tester output; here the virtual fab plays
    //    the (untrusted) foundry.
    const silicon::DuttDataset devices = core::measure_lot(config);
    std::printf("measured %zu devices (%zu PCMs, %zu fingerprints each)\n",
                devices.size(), devices.pcms.cols(), devices.fingerprints.cols());

    // 3. The golden-free pipeline: Monte Carlo simulation of the *trusted*
    //    design model, PCM->fingerprint regression, calibration to the
    //    silicon operating point, KDE tail enhancement.
    // Collect spans + work counters for the RunReport.
    obs::Registry::global().configure(obs::SinkKind::kJson);
    const std::unique_ptr<core::GoldenFreePipeline> pipeline =
        core::calibrate_pipeline(config, devices.pcms);

    // 4. Trojan test: devices inside the B5 trusted region are declared
    //    Trojan-free.
    const std::vector<bool> verdicts =
        pipeline->classify(core::Boundary::kB5, devices.fingerprints);
    std::printf("\n%-8s %-18s %-14s %s\n", "device", "actual", "verdict", "correct");
    std::size_t correct = 0;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        const bool actually_free =
            devices.variants[i] == trojan::DesignVariant::kTrojanFree;
        const bool ok = verdicts[i] == actually_free;
        correct += ok ? 1 : 0;
        std::printf("%-8zu %-18s %-14s %s\n", i,
                    trojan::variant_name(devices.variants[i]).c_str(),
                    verdicts[i] ? "trojan-free" : "TROJAN", ok ? "yes" : "NO");
    }
    std::printf("\n%zu/%zu devices classified correctly — with zero golden chips.\n",
                correct, devices.size());

    // 5. Structured run record: config, all five boundaries with their
    //    detection metrics on this lot, calibration diagnostics, and the
    //    timed spans and work counters of everything above.
    const obs::RunReport report =
        core::pipeline_run_report(*pipeline, "quickstart", &devices);
    report.write("quickstart_run_report.json");
    std::printf("wrote quickstart_run_report.json (%zu spans captured)\n",
                obs::Registry::global().span_count());

    // 6. Optional execution trace: HTD_OBS_TRACE=<file>.json writes the
    //    span tree as Chrome/Perfetto trace-event JSON (see DESIGN.md §13
    //    and the README "Profiling a run" walkthrough).
    const std::string trace = obs::write_trace_if_configured();
    if (!trace.empty()) std::printf("wrote trace %s\n", trace.c_str());
    return 0;
}
