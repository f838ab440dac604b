/// \file bench_fault_sweep.cpp
/// E14: detection under injected measurement faults. Sweeps the fault rate
/// of a FaultyBench-decorated tester (NaN/Inf dropouts plus proportional
/// spike and stuck-channel rates), pushes every lot through the hardened
/// ingestion layer and a fresh pipeline, and reports the per-boundary
/// detection metrics next to the quarantine bookkeeping — i.e. how much
/// Table 1 degrades as the tester gets worse. A final entry forces a KMM
/// collapse (effective-sample-size floor far above any real value) at the
/// 5% fault rate to demonstrate the recorded B4->B3 fallback. Writes
/// BENCH_fault_sweep.json; every point repeats exactly for its seed, so
/// every gate record is exact (rel 0, abs 0).

#include <cstdio>

#include "pipeline/experiment.hpp"
#include "pipeline/ingest.hpp"
#include "io/table.hpp"
#include "obs/run_report.hpp"
#include "silicon/fault_injector.hpp"

namespace {

struct SweepPoint {
    double rate = 0.0;
    bool force_kmm_collapse = false;
};

}  // namespace

int main() {
    using namespace htd;

    core::ExperimentConfig config;
    // Reduced budget: five full pipeline runs in one binary.
    config.pipeline.monte_carlo_samples = 80;
    config.pipeline.synthetic_samples = 20000;

    const SweepPoint points[] = {
        {0.0, false}, {0.01, false}, {0.05, false}, {0.10, false}, {0.05, true},
    };

    std::printf("Fault-injection sweep: %zu chips, dropout/spike/stuck faults\n\n",
                config.n_chips);
    io::Table table({"dropout", "kept", "retries", "faults", "B3 FP", "B3 FN",
                     "B4 FP", "B4 FN", "B4 health", "B5 FP", "B5 FN"});
    io::Json sweep = io::Json::array();
    io::Json gate = io::Json::array();

    for (const SweepPoint& point : points) {
        const std::string gate_prefix = "sweep[" + std::to_string(sweep.size()) + "].";
        // Identical streams per point: the sweep perturbs the same lot and
        // the same pipeline randomness, only the fault model changes. The
        // faulty tester measures on the experiment's spare stream.
        core::ExperimentStreams streams = core::experiment_streams(config.seed);
        const silicon::FabricatedLot lot = core::fabricate_lot(config, streams.fab);

        const silicon::MeasurementBench bench(config.platform);
        silicon::FaultModel faults;
        faults.nan_dropout_rate = point.rate;
        faults.spike_rate = point.rate * 0.5;
        faults.stuck_rate = point.rate * 0.25;
        const silicon::FaultyBench faulty(bench, faults);

        const core::MeasurementValidator validator;
        const core::IngestResult ingested =
            validator.ingest(lot, faulty, streams.extra);
        const silicon::DuttDataset& measured = ingested.dataset;

        core::ExperimentConfig point_config = config;
        if (point.force_kmm_collapse) {
            point_config.pipeline.kmm_min_effective_sample_size = 1e9;
        }
        const std::unique_ptr<core::GoldenFreePipeline> fitted =
            core::calibrate_pipeline(point_config, measured.pcms);
        const core::GoldenFreePipeline& pipeline = *fitted;

        io::Json entry = io::Json::object();
        entry.set("nan_dropout_rate", point.rate);
        entry.set("spike_rate", faults.spike_rate);
        entry.set("stuck_rate", faults.stuck_rate);
        entry.set("forced_kmm_collapse", point.force_kmm_collapse);
        entry.set("kmm_fallback_applied", pipeline.kmm_fallback_applied());
        entry.set("kmm_effective_sample_size", pipeline.kmm_effective_sample_size());
        entry.set("quarantine", ingested.summary.to_json());
        io::Json fault_stats = io::Json::object();
        fault_stats.set("nan_injected", faulty.stats().nan_injected);
        fault_stats.set("inf_injected", faulty.stats().inf_injected);
        fault_stats.set("spikes_injected", faulty.stats().spikes_injected);
        fault_stats.set("stuck_injected", faulty.stats().stuck_injected);
        fault_stats.set("remeasures", faulty.stats().remeasures);
        entry.set("fault_stats", std::move(fault_stats));
        entry.set("degradation", pipeline.degradation_report());

        io::Json boundaries = io::Json::object();
        std::vector<std::string> row{
            io::fmt(point.rate, 2) + (point.force_kmm_collapse ? "*" : ""),
            io::fmt_ratio(ingested.summary.devices_kept,
                          ingested.summary.devices_total),
            std::to_string(ingested.summary.retries_used),
            std::to_string(faulty.stats().total_faults())};
        for (const core::Boundary b :
             {core::Boundary::kB3, core::Boundary::kB4, core::Boundary::kB5}) {
            io::Json bj = io::Json::object();
            bj.set("health", core::boundary_health_name(
                                 pipeline.boundary_status(b).health));
            if (pipeline.boundary_ready(b)) {
                const ml::DetectionMetrics m = pipeline.evaluate(b, measured);
                bj.set("fp_rate", m.false_positive_rate());
                bj.set("fn_rate", m.false_negative_rate());
                bj.set("accuracy", m.accuracy());
                const std::string metric = gate_prefix + core::boundary_name(b);
                gate.push_back(obs::gate_record(metric + ".accuracy", m.accuracy(),
                                                obs::Better::kHigher, 0.0, 0.0));
                gate.push_back(obs::gate_record(metric + ".fp_rate",
                                                m.false_positive_rate(),
                                                obs::Better::kLower, 0.0, 0.0));
                gate.push_back(obs::gate_record(metric + ".fn_rate",
                                                m.false_negative_rate(),
                                                obs::Better::kLower, 0.0, 0.0));
                row.push_back(io::fmt(m.false_positive_rate(), 2));
                row.push_back(io::fmt(m.false_negative_rate(), 2));
            } else {
                row.push_back("-");
                row.push_back("-");
            }
            if (b == core::Boundary::kB4) {
                row.push_back(core::boundary_health_name(
                    pipeline.boundary_status(b).health));
            }
            boundaries.set(core::boundary_name(b), std::move(bj));
        }
        entry.set("boundaries", std::move(boundaries));
        sweep.push_back(std::move(entry));
        table.add_row(std::move(row));
    }

    std::printf("%s\n", table.str().c_str());
    std::printf("(* = KMM collapse forced; B4/B5 train on S3 and report degraded)\n");

    io::Json payload = io::Json::object();
    payload.set("n_chips", config.n_chips);
    payload.set("monte_carlo_samples", config.pipeline.monte_carlo_samples);
    payload.set("sweep", std::move(sweep));
    const std::string path =
        obs::write_bench_report("fault_sweep", std::move(payload), std::move(gate));
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
