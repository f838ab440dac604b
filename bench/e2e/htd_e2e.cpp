/// \file htd_e2e.cpp
/// End-to-end benchmark of the golden-free detector: calibrate -> save ->
/// load -> score -> explain, with per-layer attribution. See README.md in
/// this directory for the workloads, the metric dictionary and the layer ->
/// end-to-end map.
///
///     htd_e2e --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR]
///
/// One process runs one workload on one thread as a closed loop with one
/// client: the next lot (or chip) is submitted only after the previous
/// verdict is back. Lot i of workload w is fabricated from a seed derived
/// from (seed, w, i); fabrication is harness work and is never timed. The
/// loop runs for `--seconds` of wall time.
///
/// --trace 0 measures the end-to-end metrics with observability off. Every
/// 10 ms it also times a fixed reference computation on the measuring
/// thread, and reports latencies rescaled to a CPU running at full speed
/// (SpeedProbe below).
/// --trace 1 runs the workload's first units twice, untraced and with the
/// JSON sink on, and after every unit replays its layer calls through the
/// public API of each layer with the sink off: every replayed call is timed
/// and must reproduce the program's own output bit for bit. It prints the
/// stage -> layer -> work table and writes the traced units' spans to
/// <out>/<workload>.trace.json.
///
/// The last line on stdout is one JSON object
///     {"attempted": N, "correct": bool, "failed": N, "metrics": {...}}
/// and any failed operation or output mismatch makes the exit code 1.

#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "io/json.hpp"
#include "io/table.hpp"
#include "ml/kmm.hpp"
#include "ml/mars.hpp"
#include "ml/one_class_svm.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/experiment.hpp"
#include "pipeline/scorer.hpp"
#include "stats/kde.hpp"

namespace {

using namespace htd;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Run `f`, add its wall time in ms to `ms`, and pass its result through.
template <typename F>
decltype(auto) timed(double& ms, F&& f) {
    const Clock::time_point start = Clock::now();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
        f();
        ms += ms_since(start);
    } else {
        auto result = f();
        ms += ms_since(start);
        return result;
    }
}

/// The wall-time span of one measured call.
struct Interval {
    Clock::time_point start;
    Clock::time_point end;

    [[nodiscard]] double ms() const {
        return std::chrono::duration<double, std::milli>(end - start).count();
    }
};

/// Runs `f` and returns the span it took.
template <typename F>
Interval span_of(F&& f) {
    const Clock::time_point start = Clock::now();
    f();
    return {start, Clock::now()};
}

// --- host speed ----------------------------------------------------------------

/// One timing of SpeedProbe's reference computation.
struct ReferenceSample {
    Clock::time_point start;
    double ms = 0.0;
    double checksum = 0.0;  ///< keeps the reference computation alive
};

/// Samples how fast the measuring thread's CPU runs, from inside that thread.
///
/// On a shared host a vCPU runs at full speed or up to ~2x slower, for
/// tens of milliseconds to seconds at a time, as co-tenant load on its core
/// comes and goes. Raw wall times of the same code then spread by a third
/// between runs. While a SpeedProbe lives, a SIGALRM handler times a fixed
/// reference computation every 10 ms, on whatever the thread was running.
/// full_speed_ms() removes the handler's own time from a measured span and
/// rescales the rest by how slowly the reference ran during the span. On
/// that host this takes the run-to-run spread of the latency from 13-30%
/// (raw p10) down to 0.5-5% (README.md).
///
/// One probe at a time; the process must stay single-threaded while it
/// lives, so the timer's signal lands on the measuring thread.
class SpeedProbe {
public:
    /// The reference computation's time on a vCPU of the 4-vCPU Xeon host
    /// in README.md running at full speed (its 1st percentile over a run),
    /// so rescaled latencies read as if the whole run had run at full speed.
    static constexpr double kFullSpeedMs = 0.044;

    SpeedProbe() {
        for (std::size_t i = 0; i < points_.size(); ++i) {
            points_[i] = std::sin(0.37 * static_cast<double>(i));
        }
        count_.store(0, std::memory_order_relaxed);
        struct sigaction action {};
        action.sa_handler = &SpeedProbe::on_tick;
        action.sa_flags = SA_RESTART;
        sigemptyset(&action.sa_mask);
        const timeval tick{0, 10000};
        const itimerval timer{tick, tick};
        if (sigaction(SIGALRM, &action, &previous_) != 0 ||
            setitimer(ITIMER_REAL, &timer, nullptr) != 0) {
            throw std::runtime_error(std::string("cannot start the speed probe: ") +
                                     std::strerror(errno));
        }
    }

    ~SpeedProbe() { stop(); }
    SpeedProbe(const SpeedProbe&) = delete;
    SpeedProbe& operator=(const SpeedProbe&) = delete;

    /// Disarms the timer; idempotent. Spans are rescaled after this.
    void stop() {
        if (stopped_) return;
        const itimerval off{};
        setitimer(ITIMER_REAL, &off, nullptr);
        sigaction(SIGALRM, &previous_, nullptr);
        stopped_ = true;
    }

    /// `span`'s latency in ms without the probe's own time, at full speed.
    /// Uses the samples taken inside the span, or the nearest one on each
    /// side when the span is shorter than a tick; the wall time when there
    /// are no samples at all (main fails such a run). Call after stop().
    [[nodiscard]] double full_speed_ms(const Interval& span) const {
        const std::span<const ReferenceSample> samples(
            samples_.data(), std::min(count_.load(std::memory_order_acquire), kCapacity));
        const auto by_start = [](const ReferenceSample& s, Clock::time_point t) {
            return s.start < t;
        };
        const auto first =
            std::lower_bound(samples.begin(), samples.end(), span.start, by_start);
        const auto last = std::lower_bound(first, samples.end(), span.end, by_start);
        double own_ms = 0.0;
        for (auto it = first; it != last; ++it) own_ms += it->ms;
        auto n = static_cast<double>(last - first);
        double reference_ms = own_ms;
        if (n == 0.0) {
            if (first != samples.begin()) {
                reference_ms += std::prev(first)->ms;
                ++n;
            }
            if (last != samples.end()) {
                reference_ms += last->ms;
                ++n;
            }
        }
        if (n == 0.0) return span.ms();
        return (span.ms() - own_ms) * kFullSpeedMs / (reference_ms / n);
    }

    /// Every reference time, in ms. Call after stop().
    [[nodiscard]] std::vector<double> reference_ms() const {
        std::vector<double> out;
        const std::size_t n = std::min(count_.load(std::memory_order_acquire), kCapacity);
        for (std::size_t i = 0; i < n; ++i) out.push_back(samples_[i].ms);
        return out;
    }

private:
    /// 2^16 ticks of 10 ms: 655 s; later spans use the last sample.
    static constexpr std::size_t kCapacity = std::size_t{1} << 16;

    /// RBF kernel sums of 30 queries over 170 six-dimensional points: the
    /// arithmetic of an SVM decision value, small enough to stay in L1.
    static double reference() {
        double acc = 0.0;
        for (std::size_t q = 0; q < 30; ++q) {
            const double shift = 0.01 * static_cast<double>(q);
            for (std::size_t p = 0; p < points_.size(); p += 6) {
                double d2 = 0.0;
                for (std::size_t c = 0; c < 6; ++c) {
                    const double d = points_[p + c] - shift;
                    d2 += d * d;
                }
                acc += std::exp(-0.5 * d2);
            }
        }
        return acc;
    }

    /// Async-signal-safe: clock reads, arithmetic and a lock-free counter.
    static void on_tick(int /*signal*/) {
        const int saved_errno = errno;
        const std::size_t i = count_.load(std::memory_order_relaxed);
        if (i < kCapacity) {
            const Clock::time_point start = Clock::now();
            const double checksum = reference();
            samples_[i] = {start, ms_since(start), checksum};
            count_.store(i + 1, std::memory_order_release);
        }
        errno = saved_errno;
    }

    static inline std::array<double, 170 * 6> points_{};
    static inline std::array<ReferenceSample, kCapacity> samples_{};
    static inline std::atomic<std::size_t> count_{0};
    static_assert(std::atomic<std::size_t>::is_always_lock_free);

    struct sigaction previous_ {};
    bool stopped_ = false;
};

// --- workloads ---------------------------------------------------------------

enum class Kind { kCalibrate, kScore, kExplain };

struct Workload {
    std::string_view name;
    Kind kind;
    /// Monte Carlo golden devices per calibration (the paper uses 100).
    std::size_t monte_carlo_samples;
    /// Units a traced run always runs, and runs with the JSON sink on. Its
    /// trace and work counters cover exactly these units, so the counters
    /// repeat exactly for a given seed.
    std::size_t fixed_units;
};

/// Distinct lots scored round-robin by score_stream.
constexpr std::size_t kScoreLots = 64;

constexpr std::array<Workload, 4> kWorkloads = {{
    {"calibrate_paper", Kind::kCalibrate, 100, 3},
    {"calibrate_wide_mc", Kind::kCalibrate, 1000, 1},
    {"score_stream", Kind::kScore, 100, kScoreLots},
    {"explain_flagged", Kind::kExplain, 100, 64},
}};

/// Paper scale: 40 chips x 3 versions, 1e5 synthetic samples.
core::ExperimentConfig paper_config(std::size_t monte_carlo_samples) {
    core::ExperimentConfig config;
    config.n_chips = 40;
    config.pipeline.monte_carlo_samples = monte_carlo_samples;
    config.pipeline.synthetic_samples = 100000;
    return config;
}

/// Seed of lot `index` of `workload`: distinct lots per workload and index.
std::uint64_t lot_seed(std::uint64_t seed, std::string_view workload,
                       std::uint64_t index) {
    std::uint64_t name_hash = 0xcbf29ce484222325ULL;  // FNV-1a
    for (const char c : workload) {
        name_hash ^= static_cast<unsigned char>(c);
        name_hash *= 0x100000001b3ULL;
    }
    rng::SplitMix64 base(seed ^ name_hash);
    return rng::SplitMix64(base.next() + index).next();
}

/// A fabricated, measured lot plus the pipeline streams that calibrate it,
/// split in the order htd_score calibrate uses.
struct Lot {
    std::uint64_t seed = 0;
    silicon::DuttDataset devices;
    rng::Rng sim_rng;
    rng::Rng pipe_rng;
};

Lot make_lot(const core::ExperimentConfig& config, std::uint64_t seed) {
    rng::Rng master(seed);
    rng::Rng fab_rng = master.split();
    Lot lot;
    lot.seed = seed;
    lot.devices = core::fabricate_and_measure(config, fab_rng);
    lot.sim_rng = master.split();
    lot.pipe_rng = master.split();
    return lot;
}

// --- observability switch ------------------------------------------------------

/// Turns the JSON sink on for the program calls of one traced unit and off
/// again afterwards, so harness work and replays never reach the trace.
class TracedScope {
public:
    TracedScope() { obs::Registry::global().configure(obs::SinkKind::kJson); }
    ~TracedScope() { obs::Registry::global().configure(obs::SinkKind::kOff); }
    TracedScope(const TracedScope&) = delete;
    TracedScope& operator=(const TracedScope&) = delete;
};

// --- correctness -----------------------------------------------------------------

bool same_bits(std::span<const double> a, std::span<const double> b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(const linalg::Matrix& a, const linalg::Matrix& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    for (std::size_t r = 0; r < a.rows(); ++r) {
        if (!same_bits(a.row_span(r), b.row_span(r))) return false;
    }
    return true;
}

/// Collects failed operations; the run is correct when none occurred.
struct Checks {
    std::size_t attempted = 0;
    std::size_t failed = 0;

    /// Record one operation's outcome; `problem` empty = correct.
    void record(const std::string& problem) {
        ++attempted;
        if (problem.empty()) return;
        ++failed;
        if (failed <= 5) std::fprintf(stderr, "htd_e2e: FAILED: %s\n", problem.c_str());
    }
};

/// Adds one lot's verdict counts to a pooled tally.
void pool(ml::DetectionMetrics& into, const ml::DetectionMetrics& lot) {
    into.false_positives += lot.false_positives;
    into.false_negatives += lot.false_negatives;
    into.true_positives += lot.true_positives;
    into.true_negatives += lot.true_negatives;
    into.trojan_free_total += lot.trojan_free_total;
    into.trojan_infested_total += lot.trojan_infested_total;
}

/// Every boundary trained, and save -> load -> score reproduces the
/// in-process decision values bitwise (DESIGN.md §14).
std::string check_artifact_parity(const core::GoldenFreePipeline& pipeline,
                                  const core::BoundaryScorer& scorer,
                                  const linalg::Matrix& fingerprints) {
    for (const core::Boundary b : core::kAllBoundaries) {
        const core::BoundaryStatus& st = pipeline.boundary_status(b);
        if (!st.usable()) {
            return "boundary " + core::boundary_name(b) + " is " +
                   core::boundary_health_name(st.health) + ": " + st.detail;
        }
        if (!scorer.boundary_ready(b)) {
            return "boundary " + core::boundary_name(b) + " lost in save/load";
        }
        if (!same_bits(pipeline.decision_values(b, fingerprints).span(),
                       scorer.decision_values(b, fingerprints).span())) {
            return "boundary " + core::boundary_name(b) +
                   " scores differ after save/load";
        }
    }
    return {};
}

// --- calibration -------------------------------------------------------------------

/// What a calibration builds before its first stage: the process pair, the
/// Spice simulator and the pipeline.
std::unique_ptr<core::GoldenFreePipeline> make_pipeline(
    const core::ExperimentConfig& config) {
    const core::ProcessPair processes =
        core::make_process_pair(config.process_shift_sigma);
    return std::make_unique<core::GoldenFreePipeline>(
        config.pipeline, silicon::SpiceSimulator(config.platform, processes.spice));
}

struct Calibration {
    std::unique_ptr<core::GoldenFreePipeline> pipeline;
    double stage1_ms = 0.0;
    double stage2_ms = 0.0;
    double save_ms = 0.0;  ///< BoundaryArtifact::from_pipeline + save
};

/// One lot through the calibrate path, exactly as a user runs it.
Calibration calibrate(const core::ExperimentConfig& config, const Lot& lot,
                      const std::string& artifact_path) {
    rng::Rng sim_rng = lot.sim_rng;
    rng::Rng pipe_rng = lot.pipe_rng;
    Calibration out;
    out.pipeline = make_pipeline(config);
    timed(out.stage1_ms, [&] { out.pipeline->run_premanufacturing(sim_rng); });
    timed(out.stage2_ms,
          [&] { out.pipeline->run_silicon_stage(lot.devices.pcms, pipe_rng); });
    timed(out.save_ms, [&] {
        core::BoundaryArtifact::from_pipeline(*out.pipeline, lot.seed, "htd_e2e")
            .save(artifact_path);
    });
    return out;
}

// --- per-layer replay ------------------------------------------------------------

/// Per-layer quantities of one traced run. Times are keyed "<stage>/<layer>"
/// so the table can split a layer by stage; metrics sum over stages.
struct Layers {
    std::map<std::string, double> ms;      ///< summed over calibrations
    std::map<std::string, double> values;  ///< other per-calibration sums
    std::size_t calibrations = 0;
    double stage1_ms = 0.0;
    double stage2_ms = 0.0;
    double save_ms = 0.0;
    double artifact_bytes = 0.0;
    double load_ms = 0.0;
    double parse_ms = 0.0;
    double dump_ms = 0.0;
    std::size_t loads = 0;

    double bscore_ms = 0.0;
    double classify_ms = 0.0;
    double decision_rows = 0.0;  ///< rows x boundaries behind bscore_ms
    std::size_t scored_lots = 0;

    double density_ms = 0.0;
    double density_evals = 0.0;
    std::size_t explained_chips = 0;

    double plain_ms = 0.0;   ///< unit time with observability off
    double traced_ms = 0.0;  ///< the same units with the JSON sink on

    /// Stage times of an untraced calibration, the base the replayed layer
    /// times are attributed against.
    void add_stages(const Calibration& cal) {
        stage1_ms += cal.stage1_ms;
        stage2_ms += cal.stage2_ms;
        save_ms += cal.save_ms;
    }

    [[nodiscard]] double layer_ms(std::string_view layer) const {
        double sum = 0.0;
        for (const auto& [key, v] : ms) {
            if (std::string_view(key).substr(key.find('/') + 1) == layer) sum += v;
        }
        return sum;
    }
};

linalg::Matrix log_transform(const linalg::Matrix& pcms) {
    linalg::Matrix out = pcms;
    for (std::size_t r = 0; r < out.rows(); ++r) {
        for (double& v : out.row_span(r)) v = std::log(v);
    }
    return out;
}

/// Replays the layer calls of one calibration from the pipeline's public
/// accessors, in the pipeline's order and on copies of its RNG streams, and
/// checks each result against the pipeline's own. Returns a mismatch
/// description, or empty.
std::string replay_calibration(const core::ExperimentConfig& config, const Lot& lot,
                               const core::GoldenFreePipeline& pipeline,
                               Layers& layers) {
    using core::Boundary;
    const core::PipelineConfig& pc = config.pipeline;
    rng::Rng sim_rng = lot.sim_rng;
    rng::Rng pipe_rng = lot.pipe_rng;
    std::map<std::string, double> ms;
    const linalg::Matrix& probe = lot.devices.fingerprints;

    const auto fit_svm = [&](const char* stage, Boundary b,
                             const linalg::Matrix& data) -> std::string {
        ml::OneClassSvm svm(pc.svm);
        timed(ms[std::string(stage) + "/ml.svm_fit_ms." + core::boundary_name(b)],
              [&] { svm.fit(data); });
        const auto rows =
            static_cast<double>(std::min(data.rows(), pc.svm.max_training_samples));
        layers.values["svm_train_rows"] += rows;
        if (b == Boundary::kB2 || b == Boundary::kB5) {
            layers.values["kde_rows_trained"] += rows;
        }
        if (!same_bits(svm.decision_values(probe).span(),
                       pipeline.boundary_svm(b).decision_values(probe).span())) {
            return "replayed " + core::boundary_name(b) + " SVM differs";
        }
        return {};
    };
    const auto kde_enhance = [&](const char* stage, Boundary b,
                                 const linalg::Matrix& source,
                                 rng::Rng& rng) -> std::optional<linalg::Matrix> {
        const std::string key = std::string(stage) + "/";
        const stats::AdaptiveKde kde = timed(ms[key + "stats.kde_build_ms"], [&] {
            return stats::AdaptiveKde(source, pc.kde_alpha, pc.kde_bandwidth,
                                      pc.kde_kernel, pc.kde_max_lambda);
        });
        linalg::Matrix synthetic = timed(ms[key + "stats.kde_sample_ms"], [&] {
            return kde.sample_n(rng, pc.synthetic_samples);
        });
        layers.values["kde_samples_drawn"] += static_cast<double>(synthetic.rows());
        const std::optional<stats::AdaptiveKde>& own = pipeline.kde_estimator(b);
        if (!own.has_value() ||
            kde.export_state().lambda != own->export_state().lambda ||
            !same_bits(synthetic, pipeline.dataset(b))) {
            return std::nullopt;
        }
        return synthetic;
    };
    std::string problem;
    const auto fail = [&](std::string what) {
        if (problem.empty()) problem = std::move(what);
    };

    // Stage 1: Monte Carlo -> MARS -> B1, adaptive KDE -> B2.
    const core::ProcessPair processes =
        core::make_process_pair(config.process_shift_sigma);
    const silicon::SpiceSimulator simulator(config.platform, processes.spice);
    const silicon::SpiceSimulator::GoldenData golden =
        timed(ms["stage1/silicon.simulate_golden_ms"], [&] {
            return simulator.simulate_golden(sim_rng, pc.monte_carlo_samples);
        });
    const linalg::Matrix mc_pcms = log_transform(golden.pcms);
    if (!same_bits(mc_pcms, pipeline.simulated_pcms())) {
        fail("replayed Monte Carlo differs");
    }
    ml::MarsBank bank(pc.mars);
    timed(ms["stage1/ml.mars_fit_ms"], [&] { bank.fit(mc_pcms, golden.fingerprints); });
    timed(ms["stage1/ml.mars_predict_ms"], [&] { (void)bank.predict_batch(mc_pcms); });
    fail(fit_svm("stage1", Boundary::kB1, golden.fingerprints));
    const std::optional<linalg::Matrix> s2 =
        kde_enhance("stage1", Boundary::kB2, golden.fingerprints, sim_rng);
    if (!s2.has_value()) return "replayed S2 KDE differs";
    fail(fit_svm("stage1", Boundary::kB2, *s2));

    // Stage 2: MARS on silicon PCMs -> B3, KMM -> B4, adaptive KDE -> B5.
    const linalg::Matrix silicon_pcms = log_transform(lot.devices.pcms);
    const linalg::Matrix s3 = timed(ms["stage2/ml.mars_predict_ms"],
                                    [&] { return bank.predict_batch(silicon_pcms); });
    if (!same_bits(s3, pipeline.dataset(Boundary::kB3))) fail("replayed S3 differs");
    fail(fit_svm("stage2", Boundary::kB3, s3));
    const ml::KernelMeanShiftCalibrator calibrator(pc.calibration);
    const ml::KernelMeanShiftCalibrator::Result cal =
        timed(ms["stage2/ml.kmm_calibrate_ms"],
              [&] { return calibrator.calibrate(mc_pcms, silicon_pcms); });
    layers.values["kmm_shift_iterations"] += static_cast<double>(cal.iterations);
    if (!pipeline.calibration_result().has_value() ||
        !same_bits(cal.weights.span(), pipeline.calibration_result()->weights.span())) {
        return "replayed KMM weights differ";
    }
    linalg::Matrix s4 = s3;
    if (!pipeline.kmm_fallback_applied()) {
        // The drift probe's reference draw comes first on the stream; it is
        // health-probe work, so it stays in pipeline.other_ms.
        (void)ml::weighted_resample(cal.calibrated, cal.weights, 512, pipe_rng);
        const linalg::Matrix resampled = timed(ms["stage2/ml.kmm_calibrate_ms"], [&] {
            return ml::weighted_resample(cal.calibrated, cal.weights,
                                         pc.monte_carlo_samples, pipe_rng);
        });
        s4 = timed(ms["stage2/ml.mars_predict_ms"],
                   [&] { return bank.predict_batch(resampled); });
    }
    if (!same_bits(s4, pipeline.dataset(Boundary::kB4))) fail("replayed S4 differs");
    fail(fit_svm("stage2", Boundary::kB4, s4));
    const std::optional<linalg::Matrix> s5 =
        kde_enhance("stage2", Boundary::kB5, s4, pipe_rng);
    if (!s5.has_value()) return "replayed S5 KDE differs";
    fail(fit_svm("stage2", Boundary::kB5, *s5));

    for (const auto& [key, v] : ms) layers.ms[key] += v;
    for (const Boundary b : {Boundary::kB2, Boundary::kB5}) {
        layers.values["svm_support_vectors." + core::boundary_name(b)] +=
            static_cast<double>(pipeline.boundary_svm(b).support_vector_count());
    }
    ++layers.calibrations;
    return problem;
}

/// Times the artifact codec and load of a saved artifact.
std::string replay_artifact_io(const std::string& path, Layers& layers) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    const io::Json doc = timed(layers.parse_ms, [&] { return io::Json::parse(text); });
    const io::Json again = core::BoundaryArtifact::from_json(doc).to_json();
    const std::string dumped =
        timed(layers.dump_ms, [&] { return again.dump(2) + "\n"; });
    timed(layers.load_ms, [&] { (void)core::BoundaryArtifact::load(path); });
    layers.artifact_bytes += static_cast<double>(text.size());
    ++layers.loads;
    return dumped == text ? std::string()
                          : "artifact does not re-serialize byte-identically";
}

/// Times the B-score report and the verdict of one lot, per layer.
std::string replay_scoring(const core::BoundaryScorer& scorer, core::Boundary verdict,
                           const linalg::Matrix& fingerprints, Layers& layers) {
    linalg::Vector verdict_decisions;
    for (const core::Boundary b : core::kAllBoundaries) {
        if (!scorer.boundary_ready(b)) continue;
        double ms = 0.0;
        linalg::Vector d =
            timed(ms, [&] { return scorer.decision_values(b, fingerprints); });
        layers.bscore_ms += ms;
        layers.decision_rows += static_cast<double>(fingerprints.rows());
        if (b == verdict) verdict_decisions = std::move(d);
    }
    const std::vector<bool> inside =
        timed(layers.classify_ms, [&] { return scorer.classify(verdict, fingerprints); });
    ++layers.scored_lots;
    for (std::size_t r = 0; r < inside.size(); ++r) {
        if (inside[r] != (verdict_decisions[r] >= 0.0)) {
            return "classify disagrees with the verdict boundary's decision value";
        }
    }
    return {};
}

/// Replays the KDE tail-mass evaluations of one explain record: the density
/// at the chip and at every calibration observation, under S2 and S5.
std::string replay_explain(const core::BoundaryScorer& scorer, const linalg::Vector& x,
                           const core::ExplainRecord& record, Layers& layers) {
    const core::BoundaryArtifact& artifact = scorer.artifact();
    for (const auto& [state, mass] :
         {std::pair{&artifact.kde_s2(), &record.kde_s2},
          std::pair{&artifact.kde_s5(), &record.kde_s5}}) {
        if (!state->has_value()) return "artifact lacks a KDE estimator";
        const stats::AdaptiveKde kde = stats::AdaptiveKde::from_state(**state);
        const stats::Kde::State& pilot = (*state)->pilot;
        linalg::Vector observation(x.size());
        double at_chip = 0.0;
        timed(layers.density_ms, [&] {
            at_chip = kde.density(x);
            for (std::size_t i = 0; i < pilot.std_data.rows(); ++i) {
                for (std::size_t c = 0; c < x.size(); ++c) {
                    observation[c] =
                        pilot.std_data(i, c) * pilot.col_scale[c] + pilot.col_mean[c];
                }
                (void)kde.density(observation);
            }
        });
        layers.density_evals += static_cast<double>(pilot.std_data.rows() + 1);
        if (!same_bits(std::span(&at_chip, 1), std::span(&mass->density, 1))) {
            return "replayed KDE density differs from the explain record";
        }
    }
    ++layers.explained_chips;
    return {};
}

/// The read path of one lot for the traced pass: B-scores and verdict, then
/// the explanation of the first flagged chip.
std::string replay_read_path(const core::BoundaryScorer& scorer, core::Boundary verdict,
                             const linalg::Matrix& fingerprints, Layers& layers) {
    std::string problem = replay_scoring(scorer, verdict, fingerprints, layers);
    const linalg::Vector decisions = scorer.decision_values(verdict, fingerprints);
    for (std::size_t r = 0; problem.empty() && r < decisions.size(); ++r) {
        if (decisions[r] >= 0.0) continue;
        const linalg::Vector x = fingerprints.row(r);
        problem = replay_explain(scorer, x, scorer.explain(x, std::to_string(r)), layers);
        break;
    }
    return problem;
}

// --- results -----------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// total / count, or 0 when nothing was counted.
double per(double total, double count) { return count > 0.0 ? total / count : 0.0; }

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Metrics in report order, each printed as `workload metric value unit`.
class Report {
public:
    explicit Report(std::string_view workload) : workload_(workload) {}

    /// A gated metric: printed and carried in the result line.
    void add(const std::string& name, double value, const std::string& unit) {
        info(name, value, unit);
        io::Json m = io::Json::object();
        m.set("value", value);
        m.set("unit", unit);
        metrics_.set(name, std::move(m));
    }

    /// A printed-only figure, not part of the result line.
    void info(const std::string& name, double value, const std::string& unit) const {
        std::printf("%s %s %.6g %s\n", std::string(workload_).c_str(), name.c_str(),
                    value, unit.c_str());
    }

    /// The result line: the last line of stdout.
    void finish(const Checks& checks) const {
        io::Json doc = io::Json::object();
        doc.set("correct", checks.failed == 0);
        doc.set("attempted", checks.attempted);
        doc.set("failed", checks.failed);
        doc.set("metrics", metrics_);
        std::printf("%s\n", doc.dump().c_str());
        std::fflush(stdout);
    }

private:
    std::string_view workload_;
    io::Json metrics_ = io::Json::object();
};

/// Everything one run measured.
struct Measured {
    std::vector<Interval> ops;     ///< one per unit
    std::vector<Interval> setups;  ///< set-up samples
    double chips = 0.0;            ///< devices processed by the timed ops
    Checks checks;
    /// Verdicts pooled over the lots of the fixed units, so they repeat
    /// exactly for a given seed.
    ml::DetectionMetrics verdicts;
    Layers layers;
    std::map<std::string, double> work;  ///< work counters of the fixed units
};

/// Work counters added by the program calls since `before`.
void add_work(std::map<std::string, double>& into,
              const std::map<std::string, double>& before) {
    for (const auto& [name, v] : obs::Registry::global().works()) {
        const auto it = before.find(name);
        into[name] += v - (it == before.end() ? 0.0 : it->second);
    }
}

struct Options {
    const Workload* workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 25.0;
    bool trace = false;
    std::string out_dir = "bench/e2e/out";

    [[nodiscard]] std::string artifact_path() const {
        return out_dir + "/" + std::string(workload->name) + ".boundary.json";
    }
};

double fixed_units(const Options& opt) {
    return static_cast<double>(opt.workload->fixed_units);
}

/// Runs `unit(i)` for i = 0, 1, ... until `--seconds` have passed; a traced
/// run also completes at least the workload's fixed units. Before the first
/// unit and then every 250 ms it times one call of the workload's `setup`,
/// so the set-up samples, like the ops, span the whole run.
void run_units(const Options& opt, Measured& m, const std::function<void()>& setup,
               const std::function<void(std::size_t)>& unit) {
    const std::size_t min_units = opt.trace ? opt.workload->fixed_units : 1;
    const Clock::time_point start = Clock::now();
    std::optional<Clock::time_point> last_setup;
    const double budget_ms = opt.seconds * 1000.0;
    for (std::size_t i = 0; i < min_units || ms_since(start) < budget_ms; ++i) {
        if (!last_setup.has_value() || ms_since(*last_setup) >= 250.0) {
            m.setups.push_back(span_of(setup));
            last_setup = Clock::now();
        }
        unit(i);
    }
}

/// True inside the call whose latency is measured, false inside the traced
/// repeat of a unit.
bool measuring() { return !obs::Registry::global().enabled(); }

/// Runs unit `i` once. A traced run runs its fixed units twice, untraced
/// and with the JSON sink on, alternating which goes first so warm caches
/// favour neither, so the trace and the work counters cover exactly those
/// units. `unit` returns its latency in ms.
void measure_unit(const Options& opt, std::size_t i, Measured& m,
                  const std::function<double()>& unit) {
    if (!opt.trace || i >= opt.workload->fixed_units) {
        (void)unit();
        return;
    }
    for (const bool traced : {i % 2 == 1, i % 2 == 0}) {
        if (!traced) {
            m.layers.plain_ms += unit();
            continue;
        }
        const std::map<std::string, double> before = obs::Registry::global().works();
        {
            const TracedScope scope;
            m.layers.traced_ms += unit();
        }
        add_work(m.work, before);
    }
}

// --- workload drivers -------------------------------------------------------------

void run_calibrate(const Options& opt, Measured& m) {
    const core::ExperimentConfig config = paper_config(opt.workload->monte_carlo_samples);
    const std::string path = opt.artifact_path();
    const auto setup = [&] { (void)make_pipeline(config); };
    run_units(opt, m, setup, [&](std::size_t i) {
        const Lot lot = make_lot(config, lot_seed(opt.seed, opt.workload->name, i));
        std::string problem;
        try {
            std::unique_ptr<core::GoldenFreePipeline> pipeline;
            measure_unit(opt, i, m, [&] {
                Calibration cal;
                const Interval span =
                    span_of([&] { cal = calibrate(config, lot, path); });
                pipeline = std::move(cal.pipeline);
                if (measuring()) {
                    m.ops.push_back(span);
                    m.chips += static_cast<double>(lot.devices.size());
                    m.layers.add_stages(cal);
                }
                return span.ms();
            });
            if (opt.trace) {
                problem = replay_calibration(config, lot, *pipeline, m.layers);
                if (problem.empty()) problem = replay_artifact_io(path, m.layers);
            }
            const core::BoundaryScorer scorer(core::BoundaryArtifact::load(path));
            if (problem.empty()) {
                problem =
                    check_artifact_parity(*pipeline, scorer, lot.devices.fingerprints);
            }
            // Parity passed, so every boundary is usable and B5 gives the verdict.
            if (problem.empty()) {
                const core::Boundary verdict = *scorer.verdict_boundary();
                if (i < opt.workload->fixed_units) {
                    pool(m.verdicts, scorer.evaluate(verdict, lot.devices));
                }
                if (opt.trace) {
                    problem = replay_read_path(scorer, verdict, lot.devices.fingerprints,
                                               m.layers);
                }
            }
        } catch (const std::exception& e) {
            problem = std::string("calibration threw: ") + e.what();
        }
        m.checks.record(problem.empty() ? problem
                                        : "lot " + std::to_string(i) + ": " + problem);
    });
}

/// The set-up a tester pays before scoring its first chip.
void load_scorer(const std::string& path) {
    (void)core::BoundaryScorer(core::BoundaryArtifact::load(path));
}

/// Calibrates the artifact score and explain run against and loads a scorer
/// from it (harness work, untimed). A traced run replays this calibration,
/// so every layer gets a time.
std::unique_ptr<core::BoundaryScorer> prepare_scorer(const Options& opt, Measured& m) {
    const core::ExperimentConfig config = paper_config(opt.workload->monte_carlo_samples);
    const std::string path = opt.artifact_path();
    const Lot lot = make_lot(config, lot_seed(opt.seed, opt.workload->name, ~0ULL));
    const Calibration cal = calibrate(config, lot, path);
    if (opt.trace) {
        m.layers.add_stages(cal);
        m.checks.record(replay_calibration(config, lot, *cal.pipeline, m.layers));
        m.checks.record(replay_artifact_io(path, m.layers));
    }
    auto scorer =
        std::make_unique<core::BoundaryScorer>(core::BoundaryArtifact::load(path));
    m.checks.record(
        check_artifact_parity(*cal.pipeline, *scorer, lot.devices.fingerprints));
    return scorer;
}

void run_score(const Options& opt, Measured& m) {
    const std::unique_ptr<core::BoundaryScorer> scorer = prepare_scorer(opt, m);
    if (m.checks.failed > 0) return;
    const core::Boundary verdict = *scorer->verdict_boundary();
    const core::ExperimentConfig config = paper_config(opt.workload->monte_carlo_samples);
    std::vector<silicon::DuttDataset> lots;
    for (std::size_t i = 0; i < kScoreLots; ++i) {
        lots.push_back(
            make_lot(config, lot_seed(opt.seed, opt.workload->name, i)).devices);
    }
    std::vector<std::vector<bool>> first_verdicts(kScoreLots);

    // One op: the B-score report (decision values on every usable boundary,
    // what `htd_score score` writes) plus the verdict on the best boundary.
    const auto op = [&](const linalg::Matrix& fps) {
        for (const core::Boundary b : core::kAllBoundaries) {
            if (scorer->boundary_ready(b)) (void)scorer->decision_values(b, fps);
        }
        return scorer->classify(verdict, fps);
    };
    run_units(opt, m, [&] { load_scorer(opt.artifact_path()); }, [&](std::size_t i) {
        const silicon::DuttDataset& lot = lots[i % kScoreLots];
        std::string problem;
        try {
            std::vector<bool> inside;
            measure_unit(opt, i, m, [&] {
                const Interval span = span_of([&] { inside = op(lot.fingerprints); });
                if (measuring()) {
                    m.ops.push_back(span);
                    m.chips += static_cast<double>(lot.size());
                }
                return span.ms();
            });
            if (opt.trace) {
                problem = replay_read_path(*scorer, verdict, lot.fingerprints, m.layers);
            }
            std::vector<bool>& first = first_verdicts[i % kScoreLots];
            if (first.empty()) {
                first = inside;
                pool(m.verdicts, ml::evaluate_detection(inside, lot.labels()));
            } else if (problem.empty() && inside != first) {
                problem = "verdicts changed between passes";
            }
        } catch (const std::exception& e) {
            problem = std::string("scoring threw: ") + e.what();
        }
        m.checks.record(problem.empty() ? problem
                                        : "op " + std::to_string(i) + ": " + problem);
    });
}

void run_explain(const Options& opt, Measured& m) {
    const std::unique_ptr<core::BoundaryScorer> scorer = prepare_scorer(opt, m);
    if (m.checks.failed > 0) return;
    const core::Boundary verdict = *scorer->verdict_boundary();
    const core::ExperimentConfig config = paper_config(opt.workload->monte_carlo_samples);

    // The queue of flagged chips, refilled one fresh lot at a time.
    std::size_t next_lot = 0;
    silicon::DuttDataset lot;
    linalg::Vector decisions;
    std::vector<std::size_t> flagged;
    std::size_t cursor = 0;
    run_units(opt, m, [&] { load_scorer(opt.artifact_path()); }, [&](std::size_t i) {
        while (cursor == flagged.size()) {
            lot = make_lot(config, lot_seed(opt.seed, opt.workload->name, next_lot++))
                      .devices;
            decisions = scorer->decision_values(verdict, lot.fingerprints);
            const std::vector<bool> inside = scorer->classify(verdict, lot.fingerprints);
            if (i < opt.workload->fixed_units) {
                pool(m.verdicts, ml::evaluate_detection(inside, lot.labels()));
            }
            if (opt.trace) {
                m.checks.record(
                    replay_scoring(*scorer, verdict, lot.fingerprints, m.layers));
            }
            flagged.clear();
            for (std::size_t r = 0; r < inside.size(); ++r) {
                if (!inside[r]) flagged.push_back(r);
            }
            cursor = 0;
        }
        const std::size_t row = flagged[cursor++];
        const linalg::Vector x = lot.fingerprints.row(row);
        std::string problem;
        try {
            std::optional<core::ExplainRecord> rec;
            measure_unit(opt, i, m, [&] {
                const Interval span =
                    span_of([&] { rec = scorer->explain(x, std::to_string(row)); });
                if (measuring()) {
                    m.ops.push_back(span);
                    m.chips += 1.0;
                }
                return span.ms();
            });
            if (opt.trace) problem = replay_explain(*scorer, x, *rec, m.layers);
            const core::BoundaryExplanation& be =
                rec->boundaries[static_cast<std::size_t>(verdict)];
            if (problem.empty() &&
                (!rec->flagged || rec->verdict_boundary != core::boundary_name(verdict) ||
                 !be.usable || be.inside ||
                 !same_bits(std::span(&be.decision, 1), std::span(&decisions[row], 1)))) {
                problem = "explain record disagrees with the verdict boundary";
            }
        } catch (const std::exception& e) {
            problem = std::string("explain threw: ") + e.what();
        }
        m.checks.record(problem.empty() ? problem
                                        : "chip " + std::to_string(i) + ": " + problem);
    });
}

// --- reporting ---------------------------------------------------------------------

/// Gated metrics are medians of full-speed times (SpeedProbe); the raw wall
/// times are printed beside them.
void report_end_to_end(const Measured& m, const SpeedProbe& probe, Report& report) {
    std::vector<double> op_ms;
    std::vector<double> wall_ms;
    for (const Interval& op : m.ops) {
        op_ms.push_back(probe.full_speed_ms(op));
        wall_ms.push_back(op.ms());
    }
    std::vector<double> setup_ms;
    for (const Interval& setup : m.setups) setup_ms.push_back(probe.full_speed_ms(setup));

    report.add("latency_ms", quantile(op_ms, 0.5), "ms");
    report.add("setup_s", quantile(setup_ms, 0.5) / 1000.0, "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    double total_ms = 0.0;
    for (const double v : wall_ms) total_ms += v;
    report.info("ops", static_cast<double>(m.ops.size()), "count");
    report.info("setups", static_cast<double>(m.setups.size()), "count");
    report.info("latency_p90_ms", quantile(op_ms, 0.9), "ms");
    report.info("host_slowdown",
                quantile(probe.reference_ms(), 0.5) / SpeedProbe::kFullSpeedMs, "x");
    report.info("wall_latency_p10_ms", quantile(wall_ms, 0.1), "ms");
    report.info("wall_latency_p50_ms", quantile(wall_ms, 0.5), "ms");
    report.info("wall_latency_p90_ms", quantile(wall_ms, 0.9), "ms");
    report.info("wall_chips_per_s", total_ms > 0.0 ? m.chips / (total_ms / 1000.0) : 0.0,
                "chips/s");
}

const std::array<const char*, 11> kWorkCounters = {
    "work.mc.samples",          "work.mars.basis_evals",    "work.kde.kernel_evals",
    "work.kde.samples_drawn",   "work.kmm.gram_cells",      "work.kmm.pgd_matvec_cells",
    "work.kmm.shift_pair_evals", "work.svm.gram_cells",     "work.svm.kernel_evals",
    "work.svm.smo_iterations",  "work.score.devices"};

/// The replayed layers of each calibration stage, in pipeline order.
using LayerList = std::vector<std::string_view>;
const std::array<std::pair<std::string_view, LayerList>, 2> kStageLayers = {{
    {"stage1",
     {"silicon.simulate_golden_ms", "ml.mars_fit_ms", "ml.mars_predict_ms",
      "ml.svm_fit_ms.B1", "stats.kde_build_ms", "stats.kde_sample_ms",
      "ml.svm_fit_ms.B2"}},
    {"stage2",
     {"ml.mars_predict_ms", "ml.svm_fit_ms.B3", "ml.kmm_calibrate_ms",
      "ml.svm_fit_ms.B4", "stats.kde_build_ms", "stats.kde_sample_ms",
      "ml.svm_fit_ms.B5"}},
}};

/// Work counters by the layer doing the work. A counter totals the whole
/// layer, so the table shows it on the layer's first row.
const std::map<std::string_view, LayerList> kLayerCounters = {
    {"silicon.simulate_golden_ms", {"work.mc.samples"}},
    {"ml.mars_fit_ms", {"work.mars.basis_evals"}},
    {"ml.svm_fit_ms.B1", {"work.svm.gram_cells", "work.svm.smo_iterations"}},
    {"stats.kde_build_ms", {"work.kde.kernel_evals"}},
    {"stats.kde_sample_ms", {"work.kde.samples_drawn"}},
    {"ml.kmm_calibrate_ms",
     {"work.kmm.gram_cells", "work.kmm.pgd_matvec_cells", "work.kmm.shift_pair_evals"}},
};

/// Stage -> layer -> work table of the replayed calibrations.
void print_calibration_table(const Options& opt, const Measured& m) {
    const Layers& l = m.layers;
    if (l.calibrations == 0) return;
    const double n = static_cast<double>(l.calibrations);
    const double stages = (l.stage1_ms + l.stage2_ms) / n;
    io::Table table({"stage", "layer", "ms/lot", "share", "work/unit"});
    const auto share = [&](double v) { return io::fmt(100.0 * v / stages, 1) + "%"; };
    std::set<std::string_view> shown;
    for (const auto& [stage, layers] : kStageLayers) {
        double replayed = 0.0;
        for (const std::string_view layer : layers) {
            const auto it = l.ms.find(std::string(stage) + "/" + std::string(layer));
            if (it == l.ms.end()) continue;
            std::string work;
            const auto owned = kLayerCounters.find(layer);
            for (const std::string_view counter :
                 owned == kLayerCounters.end() ? LayerList{} : owned->second) {
                const auto w = m.work.find(std::string(counter));
                if (w == m.work.end() || !shown.insert(counter).second) continue;
                if (!work.empty()) work += ' ';
                work += counter;
                work += '=';
                work += io::fmt(per(w->second, fixed_units(opt)), 0);
            }
            table.add_row({std::string(stage), std::string(layer),
                           io::fmt(it->second / n, 2), share(it->second / n), work});
            replayed += it->second / n;
        }
        const double stage_ms = (stage == "stage1" ? l.stage1_ms : l.stage2_ms) / n;
        table.add_row({std::string(stage), "other (orchestration, probes)",
                       io::fmt(stage_ms - replayed, 2), share(stage_ms - replayed), ""});
    }
    table.add_row({"total", "stage1 + stage2", io::fmt(stages, 2), "100.0%", ""});
    std::printf("\n%s stage -> layer -> work (%zu calibrations replayed, work over %zu "
                "units)\n%s\n",
                std::string(opt.workload->name).c_str(), l.calibrations,
                opt.workload->fixed_units, table.str().c_str());
}

/// Read path -> layer table of the replayed B-scores, verdicts and explains.
/// Work counters show only where the workload's units are read-path ops.
void print_read_path(const Options& opt, const Measured& m) {
    const Layers& l = m.layers;
    if (l.scored_lots == 0 || l.explained_chips == 0) return;
    const auto work = [&](const char* counter) -> std::string {
        const auto w = m.work.find(counter);
        if (opt.workload->kind == Kind::kCalibrate || w == m.work.end()) return "";
        return std::string(counter) + "=" + io::fmt(per(w->second, fixed_units(opt)), 0);
    };
    const auto lots = static_cast<double>(l.scored_lots);
    const auto chips = static_cast<double>(l.explained_chips);
    io::Table table({"step", "layer", "ms", "per", "work/unit"});
    table.add_row({"score", "pipeline.bscore_ms", io::fmt(l.bscore_ms / lots, 3), "lot",
                   work("work.svm.kernel_evals")});
    table.add_row({"score", "pipeline.classify_ms", io::fmt(l.classify_ms / lots, 3),
                   "lot", work("work.score.devices")});
    table.add_row({"explain", "stats.kde_density", io::fmt(l.density_ms / chips, 3),
                   "chip", io::fmt(l.density_evals / chips, 0) + " density evals"});
    std::printf("%s read path -> layer (%zu lots scored, %zu chips explained)\n%s\n",
                std::string(opt.workload->name).c_str(), l.scored_lots, l.explained_chips,
                table.str().c_str());
}

void report_per_layer(const Options& opt, const Measured& m, Report& report) {
    const Layers& l = m.layers;
    const auto cals = static_cast<double>(l.calibrations);
    const auto lots = static_cast<double>(l.scored_lots);
    const auto loads = static_cast<double>(l.loads);
    const auto value = [&](const std::string& key) {
        const auto it = l.values.find(key);
        return it == l.values.end() ? 0.0 : it->second;
    };
    double replayed = 0.0;
    for (const auto& [key, v] : l.ms) replayed += v;
    const double stages = l.stage1_ms + l.stage2_ms;

    report.add("pipeline.stage1_ms", per(l.stage1_ms, cals), "ms");
    report.add("pipeline.stage2_ms", per(l.stage2_ms, cals), "ms");
    report.add("pipeline.other_ms", per(stages - replayed, cals), "ms");
    report.add("pipeline.replay_coverage_ratio", per(replayed, stages), "ratio");
    report.add("pipeline.artifact_save_ms", per(l.save_ms, cals), "ms");
    report.add("pipeline.artifact_bytes", per(l.artifact_bytes, loads), "bytes");
    report.add("pipeline.artifact_load_ms", per(l.load_ms, loads), "ms");
    report.add("pipeline.bscore_ms", per(l.bscore_ms, lots), "ms");
    report.add("pipeline.classify_ms", per(l.classify_ms, lots), "ms");
    for (const char* layer : {"silicon.simulate_golden_ms", "ml.mars_fit_ms",
                              "ml.mars_predict_ms", "stats.kde_build_ms",
                              "stats.kde_sample_ms"}) {
        report.add(layer, per(l.layer_ms(layer), cals), "ms");
    }
    report.add("stats.kde_samples_used_ratio",
               per(value("kde_rows_trained"), value("kde_samples_drawn")), "ratio");
    report.add("stats.kde_density_us", 1000.0 * per(l.density_ms, l.density_evals), "us");
    report.add("stats.kde_density_evals_per_chip",
               per(l.density_evals, static_cast<double>(l.explained_chips)), "count");
    report.add("ml.kmm_calibrate_ms", per(l.layer_ms("ml.kmm_calibrate_ms"), cals), "ms");
    report.add("ml.kmm_shift_iterations", per(value("kmm_shift_iterations"), cals),
               "count");
    for (const core::Boundary b : core::kAllBoundaries) {
        const std::string name = "ml.svm_fit_ms." + core::boundary_name(b);
        report.add(name, per(l.layer_ms(name), cals), "ms");
    }
    report.add("ml.svm_train_rows", per(value("svm_train_rows"), cals), "count");
    for (const core::Boundary b : {core::Boundary::kB2, core::Boundary::kB5}) {
        const std::string name = "svm_support_vectors." + core::boundary_name(b);
        report.add("ml." + name, per(value(name), cals), "count");
    }
    report.add("ml.svm_decision_us_per_row",
               1000.0 * per(l.bscore_ms, l.decision_rows), "us");
    report.add("io.json_parse_ms", per(l.parse_ms, loads), "ms");
    report.add("io.json_dump_ms", per(l.dump_ms, loads), "ms");
    report.add("obs.trace_overhead_ratio", per(l.traced_ms, l.plain_ms), "ratio");
    report.add("obs.spans_dropped", obs::Registry::global().spans_dropped(), "count");
    report.add("verdict.fp_rate", m.verdicts.false_positive_rate(), "ratio");
    report.add("verdict.fn_rate", m.verdicts.false_negative_rate(), "ratio");
    for (const char* counter : kWorkCounters) {
        const auto it = m.work.find(counter);
        report.add(counter, per(it == m.work.end() ? 0.0 : it->second, fixed_units(opt)),
                   "count");
    }
}

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "htd_e2e: %s\nusage: htd_e2e --workload NAME --seed N [--seconds S] "
                 "[--trace 0|1] [--out DIR]\nworkloads:",
                 why.c_str());
    for (const Workload& w : kWorkloads) {
        std::fprintf(stderr, " %s", std::string(w.name).c_str());
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options parse_args(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                for (const Workload& w : kWorkloads) {
                    if (w.name == value) opt.workload = &w;
                }
                if (opt.workload == nullptr) usage("unknown workload " + value);
            } else if (flag == "--seed") {
                opt.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") usage("--trace takes 0 or 1");
                opt.trace = value == "1";
            } else if (flag == "--out") {
                opt.out_dir = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (opt.workload == nullptr) usage("--workload is required");
    return opt;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse_args(argc, argv);
    // Observability off and the journal closed for everything timed; traced
    // runs switch the JSON sink on around the program calls only.
    obs::Registry::global().configure(obs::SinkKind::kOff);
    std::filesystem::create_directories(opt.out_dir);

    Measured m;
    // Untraced runs only: the per-layer times stay raw.
    std::optional<SpeedProbe> probe;
    if (!opt.trace) probe.emplace();
    try {
        switch (opt.workload->kind) {
            case Kind::kCalibrate: run_calibrate(opt, m); break;
            case Kind::kScore: run_score(opt, m); break;
            case Kind::kExplain: run_explain(opt, m); break;
        }
    } catch (const std::exception& e) {
        m.checks.record(std::string("set-up threw: ") + e.what());
    }
    if (probe.has_value()) {
        probe->stop();
        if (probe->reference_ms().empty()) {
            m.checks.record("the speed probe took no samples");
        }
    }

    Report report(opt.workload->name);
    if (opt.trace) {
        print_calibration_table(opt, m);
        print_read_path(opt, m);
        report_per_layer(opt, m, report);
        const std::string trace =
            opt.out_dir + "/" + std::string(opt.workload->name) + ".trace.json";
        obs::write_trace(trace, obs::Registry::global());
        std::printf("wrote %s\n", trace.c_str());
    } else {
        report_end_to_end(m, *probe, report);
    }
    report.finish(m.checks);
    return m.checks.failed == 0 && !m.ops.empty() ? 0 : 1;
}
