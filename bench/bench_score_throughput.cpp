/// \file bench_score_throughput.cpp
/// E16: artifact-based batch scoring throughput. Calibrates a reduced-budget
/// pipeline once, persists it as an htd.boundary.v1 artifact (timing the
/// atomic save and the validating load), then drives a tiled fingerprint
/// batch through `BoundaryScorer::classify` per usable boundary and reports
/// chips/sec — the "train once, score millions" number the calibrate/score
/// split exists for (DESIGN.md §14). Writes BENCH_score.json.

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "io/table.hpp"
#include "obs/run_report.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/experiment.hpp"
#include "pipeline/scorer.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

}  // namespace

int main() {
    using namespace htd;

    core::ExperimentConfig config;
    // Reduced calibration budget: the subject under test is the scorer, not
    // the trainer, so the pipeline only has to produce five healthy models.
    config.n_chips = 16;
    config.pipeline.monte_carlo_samples = 60;
    config.pipeline.synthetic_samples = 4000;

    const silicon::DuttDataset devices = core::measure_lot(config);
    const std::unique_ptr<core::GoldenFreePipeline> pipeline =
        core::calibrate_pipeline(config, devices.pcms);

    const std::string artifact_path = "bench_score_artifact.json";
    const core::BoundaryArtifact trained =
        core::BoundaryArtifact::from_pipeline(*pipeline, config.seed,
                                              "bench_score_throughput");
    const Clock::time_point save_start = Clock::now();
    trained.save(artifact_path);
    const double save_ms = ms_since(save_start);
    const std::uintmax_t artifact_bytes =
        std::filesystem::file_size(artifact_path);

    const Clock::time_point load_start = Clock::now();
    const core::BoundaryScorer scorer(core::BoundaryArtifact::load(artifact_path));
    const double load_ms = ms_since(load_start);

    // Tile the measured lot into a production-sized batch: scoring cost is
    // per-row, so replicated rows measure the same kernel as distinct chips.
    constexpr std::size_t kBatchRows = 4096;
    linalg::Matrix batch(kBatchRows, devices.fingerprints.cols());
    for (std::size_t r = 0; r < kBatchRows; ++r) {
        for (std::size_t c = 0; c < batch.cols(); ++c) {
            batch(r, c) = devices.fingerprints(r % devices.fingerprints.rows(), c);
        }
    }

    std::printf("Artifact scoring throughput: %zu-row batches, artifact %ju B "
                "(save %.1f ms, load+validate %.1f ms)\n\n",
                kBatchRows, artifact_bytes, save_ms, load_ms);
    io::Table table({"boundary", "health", "reps", "chips/sec"});
    io::Json boundaries = io::Json::array();
    // Throughput scales with the host, hence a ratio floor (>= 50% of the
    // blessed value) rather than an absolute band. A boundary scoreable in
    // the blessed artifact that is missing here fails the gate.
    io::Json gate = io::Json::array();

    constexpr double kMinSecondsPerBoundary = 0.2;
    for (const core::Boundary b : core::kAllBoundaries) {
        const core::BoundaryStatus& st = scorer.boundary_status(b);
        io::Json entry = io::Json::object();
        entry.set("boundary", core::boundary_name(b));
        entry.set("health", core::boundary_health_name(st.health));
        if (!scorer.boundary_ready(b)) {
            entry.set("chips_per_sec", io::Json());
            table.add_row({core::boundary_name(b),
                           core::boundary_health_name(st.health), "-", "-"});
            boundaries.push_back(std::move(entry));
            continue;
        }
        std::size_t reps = 0;
        std::size_t scored = 0;
        const Clock::time_point start = Clock::now();
        double elapsed_s = 0.0;
        do {
            const std::vector<bool> inside = scorer.classify(b, batch);
            scored += inside.size();
            ++reps;
            elapsed_s = ms_since(start) / 1000.0;
        } while (elapsed_s < kMinSecondsPerBoundary);
        const double chips_per_sec = static_cast<double>(scored) / elapsed_s;
        entry.set("reps", reps);
        entry.set("chips_per_sec", chips_per_sec);
        gate.push_back(obs::gate_record(core::boundary_name(b) + ".chips_per_sec",
                                        chips_per_sec, obs::Better::kHigher, 0.5, 0.0));
        table.add_row({core::boundary_name(b),
                       core::boundary_health_name(st.health),
                       std::to_string(reps), io::fmt(chips_per_sec, 0)});
        boundaries.push_back(std::move(entry));
    }

    std::printf("%s\n", table.str().c_str());

    io::Json payload = io::Json::object();
    payload.set("n_chips", config.n_chips);
    payload.set("batch_rows", kBatchRows);
    payload.set("artifact_bytes", static_cast<double>(artifact_bytes));
    payload.set("save_ms", save_ms);
    payload.set("load_ms", load_ms);
    payload.set("boundaries", std::move(boundaries));
    gate.push_back(obs::gate_record("load_ms", load_ms, obs::Better::kLower, 1.0, 250.0));
    const std::string path =
        obs::write_bench_report("score", std::move(payload), std::move(gate));
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
