/// \file bench_drift_sweep.cpp
/// E15: the statistical health monitor under silicon drift. Sweeps an extra
/// mean shift applied to the measured DUTT PCMs (0, 0.5, 1, 2 sigmas of the
/// measured per-channel spread, raw space) on top of the config's baked-in
/// foundry process shift, runs a fresh pipeline per point, and reports the
/// health verdict, the drift detector's per-channel KS maximum, the KMM
/// effective sample size, and the per-boundary detection metrics. A final
/// point forces a KMM collapse (as in E14) to demonstrate the DEGRADED
/// verdict from the recorded B4->B3 fallback. Writes BENCH_drift_sweep.json;
/// every point repeats exactly for its seed, so every gate record is exact
/// (rel 0, abs 0).

#include <cmath>
#include <cstdio>
#include <optional>

#include "pipeline/experiment.hpp"
#include "pipeline/report.hpp"
#include "io/table.hpp"
#include "obs/run_report.hpp"
#include "pipeline/health.hpp"

namespace {

struct SweepPoint {
    double shift_sigma = 0.0;
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
        {0.0, false}, {0.5, false}, {1.0, false}, {2.0, false}, {1.0, true},
    };

    std::printf("Drift sweep: %zu chips, extra DUTT PCM mean shift in "
                "measured sigmas\n\n",
                config.n_chips);
    io::Table table({"shift", "verdict", "max KS", "KMM ESS", "B3 acc", "B4 acc",
                     "B5 acc", "B4 health"});
    io::Json sweep = io::Json::array();
    io::Json gate = io::Json::array();

    for (const SweepPoint& point : points) {
        const std::string gate_prefix = "sweep[" + std::to_string(sweep.size()) + "].";
        // Identical streams per point: only the applied drift changes.
        silicon::DuttDataset measured = core::measure_lot(config);

        // Shift every PCM channel by `shift_sigma` measured standard
        // deviations (raw space, before the pipeline's log transform).
        if (point.shift_sigma != 0.0) {
            for (std::size_t c = 0; c < measured.pcms.cols(); ++c) {
                double mean = 0.0;
                for (std::size_t r = 0; r < measured.pcms.rows(); ++r) {
                    mean += measured.pcms(r, c);
                }
                mean /= static_cast<double>(measured.pcms.rows());
                double var = 0.0;
                for (std::size_t r = 0; r < measured.pcms.rows(); ++r) {
                    const double d = measured.pcms(r, c) - mean;
                    var += d * d;
                }
                const double sigma =
                    std::sqrt(var / static_cast<double>(measured.pcms.rows() - 1));
                for (std::size_t r = 0; r < measured.pcms.rows(); ++r) {
                    measured.pcms(r, c) += point.shift_sigma * sigma;
                }
            }
        }

        core::ExperimentConfig point_config = config;
        if (point.force_kmm_collapse) {
            point_config.pipeline.kmm_min_effective_sample_size = 1e9;
        }
        const std::unique_ptr<core::GoldenFreePipeline> fitted =
            core::calibrate_pipeline(point_config, measured.pcms);
        const core::GoldenFreePipeline& pipeline = *fitted;

        const core::HealthMonitor& health = pipeline.health();
        const std::optional<core::ProbeResult> drift = health.find("drift.pcm");
        double max_scaled_ks = 0.0;
        if (drift.has_value()) {
            for (const auto& [key, v] : drift->values) {
                if (key == "max_scaled_ks") max_scaled_ks = v;
            }
        }

        io::Json entry = io::Json::object();
        entry.set("shift_sigma", point.shift_sigma);
        entry.set("forced_kmm_collapse", point.force_kmm_collapse);
        entry.set("verdict", core::health_level_name(health.verdict()));
        entry.set("max_scaled_ks", max_scaled_ks);
        entry.set("kmm_fallback_applied", pipeline.kmm_fallback_applied());
        entry.set("kmm_effective_sample_size", pipeline.kmm_effective_sample_size());
        entry.set("health", health.to_json());
        // The verdict must not worsen: healthy < warn < degraded < critical.
        gate.push_back(obs::gate_record(gate_prefix + "verdict_rank",
                                        static_cast<double>(health.verdict()),
                                        obs::Better::kLower, 0.0, 0.0));

        io::Json boundaries = io::Json::object();
        std::vector<std::string> row{
            io::fmt(point.shift_sigma, 1) + (point.force_kmm_collapse ? "*" : ""),
            core::health_level_name(health.verdict()), io::fmt(max_scaled_ks, 2),
            io::fmt(pipeline.kmm_effective_sample_size(), 1)};
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
                row.push_back(io::fmt(m.accuracy(), 2));
            } else {
                row.push_back("-");
            }
            boundaries.set(core::boundary_name(b), std::move(bj));
        }
        row.push_back(core::boundary_health_name(
            pipeline.boundary_status(core::Boundary::kB4).health));
        entry.set("boundaries", std::move(boundaries));
        sweep.push_back(std::move(entry));
        table.add_row(std::move(row));
    }

    std::printf("%s\n", table.str().c_str());
    std::printf("(* = KMM collapse forced; the verdict degrades via the "
                "kmm_weights and boundaries probes)\n");

    io::Json payload = io::Json::object();
    payload.set("n_chips", config.n_chips);
    payload.set("monte_carlo_samples", config.pipeline.monte_carlo_samples);
    payload.set("sweep", std::move(sweep));
    const std::string path =
        obs::write_bench_report("drift_sweep", std::move(payload), std::move(gate));
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
