/// \file bench_journal.cpp
/// E17: decision-journal overhead. Calibrates a reduced-budget pipeline
/// once (the subject under test is the journal, not the trainer), then
/// measures three costs (DESIGN.md §15):
///
///   - raw append throughput: htd.events.v1 records/sec through
///     EventJournal::append to a real file (write+flush per record — the
///     crash-safety contract is part of the measured cost)
///   - scoring throughput with the journal disabled vs enabled: the same
///     BoundaryScorer::classify batch, silent vs emitting one chip_scored
///     event per device
///   - explain throughput: BoundaryScorer::explain per chip (the full
///     leave-one-channel-out attribution, much heavier than a verdict)
///
/// Writes BENCH_journal.json; scripts/check.sh --bench-gate compares its
/// gate records against bench/baselines/BENCH_journal.json.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "io/table.hpp"
#include "obs/journal.hpp"
#include "obs/run_report.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/experiment.hpp"
#include "pipeline/explain.hpp"
#include "pipeline/scorer.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main() {
    using namespace htd;

    core::ExperimentConfig config;
    // Reduced calibration budget: five healthy models are all the journal
    // needs.
    config.n_chips = 16;
    config.pipeline.monte_carlo_samples = 60;
    config.pipeline.synthetic_samples = 4000;

    const silicon::DuttDataset devices = core::measure_lot(config);
    const std::unique_ptr<core::GoldenFreePipeline> pipeline =
        core::calibrate_pipeline(config, devices.pcms);

    const core::BoundaryScorer scorer(core::BoundaryArtifact::from_pipeline(
        *pipeline, config.seed, "bench_journal"));
    const core::Boundary verdict = scorer.verdict_boundary().value();

    // Tile the measured lot into a production-sized batch (scoring cost is
    // per-row, so replicated rows measure the same kernel as distinct chips).
    constexpr std::size_t kBatchRows = 2048;
    linalg::Matrix batch(kBatchRows, devices.fingerprints.cols());
    for (std::size_t r = 0; r < kBatchRows; ++r) {
        for (std::size_t c = 0; c < batch.cols(); ++c) {
            batch(r, c) = devices.fingerprints(r % devices.fingerprints.rows(), c);
        }
    }

    obs::EventJournal& journal = obs::EventJournal::global();
    journal.close();  // the plain run must be the silent path
    constexpr double kMinSeconds = 0.2;

    // --- scoring, journal disabled -------------------------------------
    std::size_t plain_scored = 0;
    Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    do {
        plain_scored += scorer.classify(verdict, batch).size();
        elapsed = seconds_since(start);
    } while (elapsed < kMinSeconds);
    const double plain_chips_per_sec =
        static_cast<double>(plain_scored) / elapsed;

    // --- scoring, journal enabled (one chip_scored event per device) ---
    const char* const journal_path = "bench_journal_events.jsonl";
    std::remove(journal_path);
    journal.open(journal_path);
    std::size_t journal_scored = 0;
    start = Clock::now();
    do {
        journal_scored += scorer.classify(verdict, batch).size();
        elapsed = seconds_since(start);
    } while (elapsed < kMinSeconds);
    const double journal_chips_per_sec =
        static_cast<double>(journal_scored) / elapsed;

    // --- raw append throughput -----------------------------------------
    std::size_t appended = 0;
    start = Clock::now();
    do {
        obs::Event event(obs::EventKind::kChipScored);
        event.chip = std::to_string(appended);
        event.boundary = core::boundary_name(verdict);
        event.value("decision", 0.25).value("inside", 1.0);
        journal.append(std::move(event));
        ++appended;
        if ((appended & 0xFF) == 0) elapsed = seconds_since(start);
    } while (elapsed < kMinSeconds);
    elapsed = seconds_since(start);
    const double append_events_per_sec =
        static_cast<double>(appended) / elapsed;
    journal.close();
    std::remove(journal_path);

    // --- explain throughput (full per-chip attribution) -----------------
    std::size_t explained = 0;
    start = Clock::now();
    do {
        const core::ExplainRecord rec = scorer.explain(
            batch.row(explained % batch.rows()), std::to_string(explained));
        explained += rec.boundaries.empty() ? 0 : 1;
        elapsed = seconds_since(start);
    } while (elapsed < kMinSeconds);
    const double explain_chips_per_sec =
        static_cast<double>(explained) / elapsed;

    const double overhead_ratio = journal_chips_per_sec / plain_chips_per_sec;

    io::Table table({"metric", "value"});
    table.add_row({"append events/sec", io::fmt(append_events_per_sec, 0)});
    table.add_row({"score chips/sec (plain)", io::fmt(plain_chips_per_sec, 0)});
    table.add_row(
        {"score chips/sec (journal)", io::fmt(journal_chips_per_sec, 0)});
    table.add_row({"journal/plain ratio", io::fmt(overhead_ratio, 3)});
    table.add_row({"explain chips/sec", io::fmt(explain_chips_per_sec, 1)});
    std::printf("Decision-journal overhead (%zu-row batches, verdict %s)\n\n%s\n",
                kBatchRows, core::boundary_name(verdict).c_str(),
                table.str().c_str());

    io::Json payload = io::Json::object();
    payload.set("n_chips", config.n_chips);
    payload.set("batch_rows", kBatchRows);
    payload.set("verdict_boundary", core::boundary_name(verdict));
    payload.set("append_events_per_sec", append_events_per_sec);
    payload.set("plain_chips_per_sec", plain_chips_per_sec);
    payload.set("journal_chips_per_sec", journal_chips_per_sec);
    payload.set("journal_overhead_ratio", overhead_ratio);
    payload.set("explain_chips_per_sec", explain_chips_per_sec);
    // Every rate gets the artifact-scoring ratio floor (>= 50% of the
    // blessed value): throughput scales with the host. The journal/plain
    // ratio is gated too, so the relative cost of journaling cannot quietly
    // explode even on a faster host.
    io::Json gate = io::Json::array();
    for (const auto& [metric, value] :
         {std::pair{"append_events_per_sec", append_events_per_sec},
          std::pair{"plain_chips_per_sec", plain_chips_per_sec},
          std::pair{"journal_chips_per_sec", journal_chips_per_sec},
          std::pair{"explain_chips_per_sec", explain_chips_per_sec},
          std::pair{"journal_overhead_ratio", overhead_ratio}}) {
        gate.push_back(obs::gate_record(metric, value, obs::Better::kHigher, 0.5, 0.0));
    }
    const std::string path =
        obs::write_bench_report("journal", std::move(payload), std::move(gate));
    std::printf("wrote %s\n", path.c_str());
    return 0;
}
