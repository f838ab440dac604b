/// \file test_bench_compare.cpp
/// The bench gate's one rule, driven through the bench_compare binary over
/// fixture baseline/candidate dirs written here: each historical rule shape
/// (lower-is-better with a relative band and an absolute floor, a ratio
/// floor, an absolute band, the drift verdict rank) passes exactly at its
/// band and fails just past it; a metric missing from the candidate fails;
/// and a missing candidate file is a usage error.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "obs/run_report.hpp"

namespace {

namespace fs = std::filesystem;
using htd::io::Json;
using htd::obs::Better;
using htd::obs::gate_record;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One fixture metric: the blessed record plus a candidate value.
struct Metric {
    std::string name;
    double baseline;
    Better better;
    double rel;
    double abs;
    double candidate;
};

/// The three rule shapes the per-artifact comparators used to hand-code,
/// plus the verdict rank, each with the candidate exactly at its band.
std::vector<Metric> at_band() {
    return {
        // check_lower(rel 0.2, abs 100): the relative band dominates ...
        {"lower_rel", 1000.0, Better::kLower, 0.2, 100.0, 1200.0},
        // ... and the absolute floor dominates for small values.
        {"lower_floor", 100.0, Better::kLower, 0.2, 100.0, 200.0},
        // check_ratio_min(0.5) == higher, rel 0.5, abs 0.
        {"ratio", 1000.0, Better::kHigher, 0.5, 0.0, 500.0},
        // check_abs(0.1), lower is better; 0.3 + 0.1 == 0.4 exactly in
        // binary floating point, while 0.4 - 0.3 > 0.1.
        {"abs_lower", 0.3, Better::kLower, 0.0, 0.1, 0.4},
        // check_abs(0.02), higher is better.
        {"abs_higher", 0.9, Better::kHigher, 0.0, 0.02, 0.9 - 0.02},
        // The drift verdict rank: lower, abs 0 — any worsening fails.
        {"verdict_rank", 0.0, Better::kLower, 0.0, 0.0, 0.0},
    };
}

struct Result {
    int exit_code = -1;
    std::string output;
};

class BenchCompareTest : public ::testing::Test {
protected:
    void SetUp() override {
        root_ = fs::temp_directory_path() /
                ("htd_bench_compare_" +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name()) +
                 "_" + std::to_string(::getpid()));
        fs::remove_all(root_);
        fs::create_directories(base_dir());
        fs::create_directories(cand_dir());
    }

    void TearDown() override { fs::remove_all(root_); }

    [[nodiscard]] fs::path base_dir() const { return root_ / "base"; }
    [[nodiscard]] fs::path cand_dir() const { return root_ / "cand"; }

    /// Write BENCH_<name>.json into both dirs; `drop` names a metric left
    /// out of the candidate.
    void write_pair(const std::string& name, const std::vector<Metric>& metrics,
                    const std::string& drop = {}) const {
        Json base = Json::array();
        Json cand = Json::array();
        for (const Metric& m : metrics) {
            base.push_back(gate_record(m.name, m.baseline, m.better, m.rel, m.abs));
            if (m.name == drop) continue;
            cand.push_back(gate_record(m.name, m.candidate, m.better, m.rel, m.abs));
        }
        write_artifact(base_dir(), name, std::move(base));
        write_artifact(cand_dir(), name, std::move(cand));
    }

    static void write_artifact(const fs::path& dir, const std::string& name,
                               Json gate) {
        Json doc = Json::object();
        doc.set("results", Json::object());
        doc.set("gate", std::move(gate));
        doc.dump_to_file((dir / ("BENCH_" + name + ".json")).string());
    }

    [[nodiscard]] Result compare() const {
        const std::string cmd = std::string(HTD_BENCH_COMPARE) + " --baseline-dir '" +
                                base_dir().string() + "' --candidate-dir '" +
                                cand_dir().string() + "' 2>&1";
        Result run;
        FILE* pipe = ::popen(cmd.c_str(), "r");
        if (pipe == nullptr) return run;
        char buf[512];
        while (std::fgets(buf, sizeof buf, pipe) != nullptr) run.output += buf;
        const int status = ::pclose(pipe);
        if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
        return run;
    }

private:
    fs::path root_;
};

TEST_F(BenchCompareTest, EveryRuleShapePassesExactlyAtItsBand) {
    write_pair("fixture", at_band());
    const Result run = compare();
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_NE(run.output.find("OK (6 checks, 0 failed)"), std::string::npos)
        << run.output;
}

TEST_F(BenchCompareTest, EveryRuleShapeFailsJustPastItsBand) {
    std::vector<Metric> metrics = at_band();
    for (Metric& m : metrics) {
        // One ulp further in the bad direction.
        m.candidate = std::nextafter(m.candidate, m.better == Better::kLower ? kInf : -kInf);
    }
    write_pair("fixture", metrics);
    const Result run = compare();
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find("REGRESSION (6 checks, 6 failed)"),
              std::string::npos)
        << run.output;
    for (const Metric& m : metrics) {
        EXPECT_NE(run.output.find("FAIL   " + m.name + " "), std::string::npos) << m.name;
    }
}

TEST_F(BenchCompareTest, MetricMissingFromCandidateFails) {
    write_pair("fixture", at_band(), "ratio");
    const Result run = compare();
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find("1 failed"), std::string::npos) << run.output;
    EXPECT_NE(run.output.find("candidate missing"), std::string::npos) << run.output;
}

TEST_F(BenchCompareTest, MissingCandidateFileIsAUsageError) {
    write_pair("fixture", at_band());
    write_artifact(base_dir(), "only_blessed", Json::array());
    const Result run = compare();
    EXPECT_EQ(run.exit_code, 2) << run.output;
    EXPECT_NE(run.output.find("BENCH_only_blessed.json missing"), std::string::npos)
        << run.output;
}

}  // namespace
