/// \file bench_micro.cpp
/// Experiment E9: google-benchmark microbenchmarks of the statistical
/// kernels the pipeline spends its time in — KDE construction and sampling,
/// one-class SVM training, MARS fitting, KMM solving, AES encryption and
/// the analytic circuit models — plus the htd::obs instrumentation overhead
/// (disabled vs enabled). Results are written to BENCH_micro.json through
/// the obs JSON sink for the perf trajectory.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "crypto/aes.hpp"
#include "circuit/delay.hpp"
#include "circuit/spice.hpp"
#include "ml/gpr.hpp"
#include "obs/run_report.hpp"
#include "obs/span.hpp"
#include "ml/kmm.hpp"
#include "ml/mars.hpp"
#include "ml/one_class_svm.hpp"
#include "process/variation_model.hpp"
#include "rng/rng.hpp"
#include "stats/kde.hpp"

namespace {

using htd::linalg::Matrix;
using htd::linalg::Vector;

Matrix gaussian_cloud(std::size_t n, std::size_t d, std::uint64_t seed) {
    htd::rng::Rng rng(seed);
    Matrix data(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c) data(r, c) = rng.normal();
    return data;
}

void BM_AdaptiveKdeBuild(benchmark::State& state) {
    const Matrix data = gaussian_cloud(static_cast<std::size_t>(state.range(0)), 6, 1);
    for (auto _ : state) {
        htd::stats::AdaptiveKde kde(data, 0.5);
        benchmark::DoNotOptimize(kde.pilot_geometric_mean());
    }
}
BENCHMARK(BM_AdaptiveKdeBuild)->Arg(50)->Arg(100)->Arg(200);

void BM_AdaptiveKdeSample(benchmark::State& state) {
    const Matrix data = gaussian_cloud(100, 6, 2);
    const htd::stats::AdaptiveKde kde(data, 0.5);
    htd::rng::Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(kde.sample(rng));
    }
}
BENCHMARK(BM_AdaptiveKdeSample);

void BM_OneClassSvmFit(benchmark::State& state) {
    const Matrix data = gaussian_cloud(static_cast<std::size_t>(state.range(0)), 6, 4);
    for (auto _ : state) {
        htd::ml::OneClassSvm svm;
        svm.fit(data);
        benchmark::DoNotOptimize(svm.rho());
    }
}
BENCHMARK(BM_OneClassSvmFit)->Arg(100)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_OneClassSvmDecision(benchmark::State& state) {
    const Matrix data = gaussian_cloud(1000, 6, 5);
    htd::ml::OneClassSvm svm;
    svm.fit(data);
    const Vector probe(6, 0.5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(svm.decision_value(probe));
    }
}
BENCHMARK(BM_OneClassSvmDecision);

void BM_MarsFit(benchmark::State& state) {
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    htd::rng::Rng rng(6);
    Matrix x(n, 1);
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.uniform(-2.0, 2.0);
        y[i] = std::max(0.0, x(i, 0)) + 0.1 * rng.normal();
    }
    for (auto _ : state) {
        htd::ml::Mars mars({.max_terms = 7, .max_knots_per_variable = 7});
        mars.fit(x, y);
        benchmark::DoNotOptimize(mars.gcv());
    }
}
BENCHMARK(BM_MarsFit)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_KmmSolve(benchmark::State& state) {
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const Matrix train = gaussian_cloud(n, 1, 7);
    Matrix test = gaussian_cloud(n, 1, 8);
    for (std::size_t r = 0; r < test.rows(); ++r) test(r, 0) += 1.0;
    const htd::ml::KernelMeanMatching kmm;
    for (auto _ : state) {
        benchmark::DoNotOptimize(kmm.solve(train, test));
    }
}
BENCHMARK(BM_KmmSolve)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_AesEncrypt(benchmark::State& state) {
    htd::crypto::Block key{};
    for (std::size_t i = 0; i < 16; ++i) key[i] = static_cast<std::uint8_t>(i);
    const htd::crypto::Aes aes(key);
    htd::crypto::Block block{};
    for (auto _ : state) {
        block = aes.encrypt(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_AesEncrypt);

void BM_PcmPathDelay(benchmark::State& state) {
    const htd::circuit::PcmPath path;
    const auto pp = htd::process::nominal_350nm();
    for (auto _ : state) {
        benchmark::DoNotOptimize(path.delay_ns(pp));
    }
}
BENCHMARK(BM_PcmPathDelay);

void BM_ProcessSample(benchmark::State& state) {
    const auto model = htd::process::ProcessVariationModel::default_350nm();
    htd::rng::Rng rng(9);
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.sample_monte_carlo(rng));
    }
}
BENCHMARK(BM_ProcessSample);

void BM_SpiceDcInverter(benchmark::State& state) {
    htd::circuit::Netlist net;
    net.add_vsource("vdd", "vdd", "0", htd::circuit::Pwl(3.3));
    net.add_vsource("vin", "in", "0", htd::circuit::Pwl(1.65));
    net.add_inverter("x1", "in", "out", "vdd", 4.0);
    const htd::circuit::SpiceEngine engine(net);
    const auto pp = htd::process::nominal_350nm();
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.dc(pp));
    }
}
BENCHMARK(BM_SpiceDcInverter);

void BM_SpicePcmTransient(benchmark::State& state) {
    htd::circuit::PcmPath::Options opts;
    opts.stages = 2;
    const auto pp = htd::process::nominal_350nm();
    for (auto _ : state) {
        benchmark::DoNotOptimize(htd::circuit::spice_pcm_delay_ns(pp, opts, 0.1));
    }
}
BENCHMARK(BM_SpicePcmTransient)->Unit(benchmark::kMillisecond);

// --- htd::obs overhead -------------------------------------------------------
// The acceptance bar for leaving instrumentation in hot paths: a disabled
// span must cost no more than a few ns (one relaxed atomic load), and the
// enabled path must stay cheap enough for per-stage (not per-sample) use.

void BM_ObsSpanDisabled(benchmark::State& state) {
    htd::obs::Registry::global().configure(htd::obs::SinkKind::kOff);
    for (auto _ : state) {
        htd::obs::ScopedSpan span("bench.disabled_span");
        benchmark::DoNotOptimize(span.active());
    }
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
    auto& registry = htd::obs::Registry::global();
    registry.configure(htd::obs::SinkKind::kJson);
    for (auto _ : state) {
        htd::obs::ScopedSpan span("bench.enabled_span");
        benchmark::DoNotOptimize(span.active());
    }
    registry.configure(htd::obs::SinkKind::kOff);
    registry.reset();  // don't let millions of bench spans pollute the report
}
BENCHMARK(BM_ObsSpanEnabled);

void BM_GprFit(benchmark::State& state) {
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    htd::rng::Rng rng(12);
    Matrix x(n, 1);
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.normal();
        y[i] = x(i, 0) + 0.1 * rng.normal();
    }
    for (auto _ : state) {
        htd::ml::GaussianProcessRegressor gpr;
        gpr.fit(x, y);
        benchmark::DoNotOptimize(gpr.r_squared());
    }
}
BENCHMARK(BM_GprFit)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);

// The usual console table, plus a JSON copy of every finished run so
// main() can serialize the lot to BENCH_micro.json.
class CapturingReporter : public benchmark::ConsoleReporter {
public:
    void ReportRuns(const std::vector<Run>& runs) override {
        benchmark::ConsoleReporter::ReportRuns(runs);
        for (const Run& run : runs) {
            if (run.error_occurred) continue;
            const double iters = static_cast<double>(run.iterations);
            htd::io::Json entry = htd::io::Json::object();
            entry.set("name", run.benchmark_name());
            entry.set("iterations", iters);
            entry.set("real_ns_per_iter",
                      iters > 0 ? run.real_accumulated_time * 1e9 / iters : 0.0);
            entry.set("cpu_ns_per_iter",
                      iters > 0 ? run.cpu_accumulated_time * 1e9 / iters : 0.0);
            // Gated: lower is better; a regression needs BOTH > +20% and
            // > +100 ns, so nanosecond-scale kernels don't flap.
            gate_.push_back(htd::obs::gate_record(
                run.benchmark_name() + ".real_ns_per_iter",
                entry.at("real_ns_per_iter").number(), htd::obs::Better::kLower, 0.20,
                100.0));
            results_.push_back(std::move(entry));
        }
    }

    htd::io::Json results() const { return results_; }
    htd::io::Json gate() const { return gate_; }

private:
    htd::io::Json results_ = htd::io::Json::array();
    htd::io::Json gate_ = htd::io::Json::array();
};

// Deterministic per-point work profile: run each parameterized kernel once
// with the registry recording and snapshot the work counters it reports,
// keyed "<Bench>/<arg>:<counter>". Timing in "results" says how long a
// point took; these say how much algorithmic work it did — htd_profile
// diffs both, so a BENCH_micro regression can be attributed to "more
// kernel evaluations" rather than just "slower".
htd::io::Json work_profile() {
    auto& registry = htd::obs::Registry::global();
    registry.configure(htd::obs::SinkKind::kJson);
    registry.reset();
    htd::io::Json out = htd::io::Json::object();
    auto snapshot = [&](const std::string& label) {
        for (const auto& [name, value] : registry.works()) {
            out.set(label + ":" + name, value);
        }
        registry.reset();
    };

    for (const std::size_t n : {std::size_t{50}, std::size_t{100}, std::size_t{200}}) {
        const htd::stats::AdaptiveKde kde(gaussian_cloud(n, 6, 1), 0.5);
        benchmark::DoNotOptimize(kde.pilot_geometric_mean());
        snapshot("AdaptiveKdeBuild/" + std::to_string(n));
    }
    for (const std::size_t n :
         {std::size_t{100}, std::size_t{500}, std::size_t{2000}}) {
        htd::ml::OneClassSvm svm;
        svm.fit(gaussian_cloud(n, 6, 4));
        snapshot("OneClassSvmFit/" + std::to_string(n));
    }
    for (const std::size_t n : {std::size_t{100}, std::size_t{200}}) {
        const Matrix train = gaussian_cloud(n, 1, 7);
        Matrix test = gaussian_cloud(n, 1, 8);
        for (std::size_t r = 0; r < test.rows(); ++r) test(r, 0) += 1.0;
        const htd::ml::KernelMeanMatching kmm;
        const Vector beta = kmm.solve(train, test);
        benchmark::DoNotOptimize(beta.size());
        snapshot("KmmSolve/" + std::to_string(n));
    }

    registry.configure(htd::obs::SinkKind::kOff);
    registry.reset();
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    const htd::io::Json work = work_profile();
    // Work counts are deterministic, so each work_profile point is also an
    // exact gate record: any added work fails bench_compare.
    htd::io::Json gate = reporter.gate();
    for (const auto& [name, value] : work.members()) {
        gate.push_back(htd::obs::gate_record(name, value.number(),
                                             htd::obs::Better::kLower, 0.0, 0.0));
    }

    htd::obs::RunReport report("bench_micro");
    report.set("results", reporter.results());
    report.set("gate", gate);
    report.set("work_profile", work);
    report.capture_observability();
    const std::string path = "BENCH_micro.json";
    report.write(path);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return 0;
}
