/// \file test_explain.cpp
/// The htd.explain.v1 verdict-attribution contract (DESIGN.md §15): the
/// explanation is deterministic at fixed seed and bitwise-identical
/// between the in-process artifact and its save/load round trip; decision
/// values match the scoring path exactly; channel contributions rank by
/// |leave-one-channel-out delta|; neighbours rank by distance; KDE tail
/// percentiles live in [0, 1] and equal a brute-force count; concurrent
/// first explains on one scorer agree. Plus the htd_explain_lib journal
/// validate/query surface and renderers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "explain_cli.hpp"
#include "io/json.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/experiment.hpp"
#include "pipeline/explain.hpp"
#include "pipeline/scorer.hpp"
#include "stats/kde.hpp"

namespace {

using namespace htd;

/// One reduced-budget calibration for the whole suite, scored two ways:
/// straight from the in-process artifact and from its save/load round trip.
class ExplainSuite : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        core::ExperimentConfig config;
        config.n_chips = 10;
        config.pipeline.monte_carlo_samples = 40;
        config.pipeline.synthetic_samples = 3000;

        const silicon::DuttDataset devices = core::measure_lot(config);
        fingerprints_ = devices.fingerprints;

        const core::BoundaryArtifact artifact = core::BoundaryArtifact::from_pipeline(
            *core::calibrate_pipeline(config, devices.pcms), config.seed, "test_explain");
        scorer_ = std::make_unique<core::BoundaryScorer>(artifact);

        const std::string path =
            (std::filesystem::temp_directory_path() /
             ("htd_explain_test_" + std::to_string(::getpid()) + ".json"))
                .string();
        artifact.save(path);
        loaded_scorer_ = std::make_unique<core::BoundaryScorer>(
            core::BoundaryArtifact::load(path));
        std::filesystem::remove(path);
    }

    static void TearDownTestSuite() {
        scorer_.reset();
        loaded_scorer_.reset();
    }

    static std::unique_ptr<core::BoundaryScorer> scorer_;
    static std::unique_ptr<core::BoundaryScorer> loaded_scorer_;
    static linalg::Matrix fingerprints_;
};

std::unique_ptr<core::BoundaryScorer> ExplainSuite::scorer_;
std::unique_ptr<core::BoundaryScorer> ExplainSuite::loaded_scorer_;
linalg::Matrix ExplainSuite::fingerprints_;

TEST_F(ExplainSuite, RecordIsBitwiseIdenticalAcrossArtifactRoundTrip) {
    // The acceptance criterion: explain() must serialize to the same bytes
    // whether the artifact lives in memory or went through save/load.
    for (std::size_t r = 0; r < fingerprints_.rows(); ++r) {
        const std::string in_process =
            scorer_->explain(fingerprints_.row(r), std::to_string(r))
                .to_json()
                .dump();
        const std::string loaded =
            loaded_scorer_->explain(fingerprints_.row(r), std::to_string(r))
                .to_json()
                .dump();
        EXPECT_EQ(in_process, loaded) << "chip " << r;
    }
}

TEST_F(ExplainSuite, DecisionsMatchTheScoringPathExactly) {
    const core::ExplainRecord rec =
        scorer_->explain(fingerprints_.row(0), "0");
    ASSERT_EQ(rec.boundaries.size(), core::kAllBoundaries.size());
    for (const core::Boundary b : core::kAllBoundaries) {
        const core::BoundaryExplanation& be =
            rec.boundaries[static_cast<std::size_t>(b)];
        EXPECT_EQ(be.boundary, b);
        if (!be.usable) continue;
        const linalg::Vector decisions =
            scorer_->decision_values(b, fingerprints_);
        EXPECT_EQ(be.decision, decisions[0]);  // bitwise, no tolerance
        EXPECT_EQ(be.inside, decisions[0] >= 0.0);
        EXPECT_EQ(be.margin, be.decision);
    }
}

TEST_F(ExplainSuite, ChannelsRankByAbsoluteLocoDeltaAndCoverAllChannels) {
    const core::ExplainRecord rec =
        scorer_->explain(fingerprints_.row(1), "1");
    bool any_usable = false;
    for (const core::BoundaryExplanation& be : rec.boundaries) {
        if (!be.usable) continue;
        any_usable = true;
        EXPECT_EQ(be.channels.size(), fingerprints_.cols());
        for (std::size_t i = 1; i < be.channels.size(); ++i) {
            EXPECT_GE(std::abs(be.channels[i - 1].loco_delta),
                      std::abs(be.channels[i].loco_delta));
        }
        // Every channel appears exactly once.
        std::vector<bool> seen(fingerprints_.cols(), false);
        for (const core::ChannelAttribution& ca : be.channels) {
            ASSERT_LT(ca.channel, seen.size());
            EXPECT_FALSE(seen[ca.channel]);
            seen[ca.channel] = true;
            EXPECT_TRUE(std::isfinite(ca.z));
        }
    }
    EXPECT_TRUE(any_usable);
}

TEST_F(ExplainSuite, NeighborsAreNearestFirstAndTailMassIsAPercentile) {
    core::ExplainOptions opts;
    opts.neighbors = 5;
    const core::ExplainRecord rec =
        scorer_->explain(fingerprints_.row(2), "2", opts);
    for (const core::BoundaryExplanation& be : rec.boundaries) {
        if (!be.usable) continue;
        EXPECT_LE(be.neighbors.size(), opts.neighbors);
        EXPECT_GE(be.neighbors.size(), 1u);
        for (std::size_t i = 1; i < be.neighbors.size(); ++i) {
            EXPECT_LE(be.neighbors[i - 1].distance, be.neighbors[i].distance);
        }
        for (const core::NeighborRef& nb : be.neighbors) {
            EXPECT_GE(nb.distance, 0.0);
        }
    }
    for (const core::KdeTailMass* tail : {&rec.kde_s2, &rec.kde_s5}) {
        if (!tail->present) continue;
        EXPECT_GE(tail->density, 0.0);
        EXPECT_GE(tail->tail_percentile, 0.0);
        EXPECT_LE(tail->tail_percentile, 1.0);
    }
}

/// Brute-force tail mass of `x` under one persisted estimator: the density
/// at `x` and the share of reconstructed calibration observations
/// (std * scale + mean) whose own density is at most it.
core::KdeTailMass brute_force_tail_mass(const stats::AdaptiveKde::State& state,
                                        const linalg::Vector& x) {
    const stats::AdaptiveKde kde = stats::AdaptiveKde::from_state(state);
    const linalg::Matrix& std_data = state.pilot.std_data;
    core::KdeTailMass out;
    out.present = true;
    out.density = kde.density(x);
    std::size_t at_most = 0;
    linalg::Vector obs(std_data.cols());
    for (std::size_t i = 0; i < std_data.rows(); ++i) {
        for (std::size_t c = 0; c < std_data.cols(); ++c) {
            obs[c] = std_data(i, c) * state.pilot.col_scale[c] +
                     state.pilot.col_mean[c];
        }
        if (kde.density(obs) <= out.density) ++at_most;
    }
    out.tail_percentile =
        static_cast<double>(at_most) / static_cast<double>(std_data.rows());
    return out;
}

TEST_F(ExplainSuite, TailPercentileMatchesABruteForceCount) {
    const core::BoundaryArtifact& artifact = scorer_->artifact();
    ASSERT_TRUE(artifact.kde_s2().has_value());
    ASSERT_TRUE(artifact.kde_s5().has_value());
    std::vector<linalg::Vector> probes;
    for (std::size_t r = 0; r < std::min<std::size_t>(fingerprints_.rows(), 6); ++r) {
        probes.push_back(fingerprints_.row(r));
    }
    // The tie case: a probe exactly on S5's reconstructed calibration
    // observation 0 has that observation's density, and the count must
    // include it.
    const stats::Kde::State& pilot = artifact.kde_s5()->pilot;
    linalg::Vector on_obs(pilot.std_data.cols());
    for (std::size_t c = 0; c < on_obs.size(); ++c) {
        on_obs[c] = pilot.std_data(0, c) * pilot.col_scale[c] + pilot.col_mean[c];
    }
    probes.push_back(on_obs);

    for (const core::BoundaryScorer* scorer : {scorer_.get(), loaded_scorer_.get()}) {
        for (std::size_t p = 0; p < probes.size(); ++p) {
            const core::ExplainRecord rec = scorer->explain(probes[p], std::to_string(p));
            for (const auto& [state, mass] :
                 {std::pair{&*artifact.kde_s2(), &rec.kde_s2},
                  std::pair{&*artifact.kde_s5(), &rec.kde_s5}}) {
                const core::KdeTailMass want = brute_force_tail_mass(*state, probes[p]);
                ASSERT_TRUE(mass->present);
                EXPECT_EQ(mass->density, want.density) << "probe " << p;
                EXPECT_EQ(mass->tail_percentile, want.tail_percentile) << "probe " << p;
            }
        }
    }
    const core::ExplainRecord tie = scorer_->explain(on_obs, "tie");
    EXPECT_GE(tie.kde_s5.tail_percentile * static_cast<double>(pilot.std_data.rows()),
              1.0);
}

TEST(KdeTailReferenceTest, NanCalibrationDensitiesNeverCount) {
    // A state from_state accepts whose kernel sums overflow: at h = 1e-308
    // each of the three coincident observations adds 0.75e308, so their
    // densities are NaN, while the isolated fourth one stays finite. A `<=`
    // scan counts only the fourth at its own density.
    stats::AdaptiveKde::State state;
    state.pilot.std_data = linalg::Matrix(4, 1);
    state.pilot.std_data(3, 0) = 10.0;
    state.pilot.col_mean = linalg::Vector(1, 0.0);
    state.pilot.col_scale = linalg::Vector(1, 1.0);
    state.pilot.h = 1e-308;
    state.lambda = {1.0, 1.0, 1.0, 1.0};
    const linalg::Vector isolated{10.0};
    const core::KdeTailMass want = brute_force_tail_mass(state, isolated);
    ASSERT_EQ(want.tail_percentile, 0.25);
    const core::KdeTailMass got = core::KdeTailReference(state).at(isolated);
    EXPECT_EQ(got.density, want.density);
    EXPECT_EQ(got.tail_percentile, want.tail_percentile);
}

TEST_F(ExplainSuite, ConcurrentExplainsOnAFreshScorerAgree) {
    // Several threads make the first explain calls on one scorer at once,
    // racing the build of its tail-mass reference; every record must match
    // the one a warmed scorer gives. `scripts/check.sh tsan` runs this under
    // ThreadSanitizer.
    const auto explain_all = [](const core::BoundaryScorer& scorer) {
        std::vector<std::string> dumps;
        for (std::size_t r = 0; r < fingerprints_.rows(); ++r) {
            dumps.push_back(scorer.explain(fingerprints_.row(r), std::to_string(r))
                                .to_json()
                                .dump());
        }
        return dumps;
    };
    const std::vector<std::string> want = explain_all(*scorer_);
    const core::BoundaryScorer fresh(scorer_->artifact());
    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<std::string>> got(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            got[t] = explain_all(fresh);
        });
    }
    for (std::thread& th : threads) th.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(got[t], want) << "thread " << t;
    }
}

TEST_F(ExplainSuite, TopChannelsOptionTruncatesTheRanking) {
    core::ExplainOptions opts;
    opts.top_channels = 2;
    const core::ExplainRecord rec =
        scorer_->explain(fingerprints_.row(0), "0", opts);
    for (const core::BoundaryExplanation& be : rec.boundaries) {
        if (be.usable) {
            EXPECT_EQ(be.channels.size(), 2u);
        }
    }
}

TEST_F(ExplainSuite, FlaggedAgreesWithTheVerdictBoundaryClassification) {
    const std::optional<core::Boundary> vb = scorer_->verdict_boundary();
    ASSERT_TRUE(vb.has_value());
    const std::vector<bool> inside = scorer_->classify(*vb, fingerprints_);
    for (std::size_t r = 0; r < fingerprints_.rows(); ++r) {
        const core::ExplainRecord rec =
            scorer_->explain(fingerprints_.row(r), std::to_string(r));
        EXPECT_EQ(rec.verdict_boundary, core::boundary_name(*vb));
        EXPECT_EQ(rec.flagged, !inside[r]) << "chip " << r;
    }
}

TEST_F(ExplainSuite, NonFiniteFingerprintIsRejected) {
    linalg::Vector bad = fingerprints_.row(0);
    bad[0] = std::nan("");
    EXPECT_THROW((void)scorer_->explain(bad, "0"), core::DataQualityError);
}

TEST_F(ExplainSuite, RenderedExplanationNamesTheVerdict) {
    const io::Json doc = scorer_->explain(fingerprints_.row(0), "0").to_json();
    const std::string text = explain_cli::render_explanation(doc);
    EXPECT_NE(text.find("chip 0"), std::string::npos);
    EXPECT_NE(text.find(doc.at("verdict_boundary").str()), std::string::npos);
    EXPECT_NE(text.find("channel contributions"), std::string::npos);
    EXPECT_NE(text.find("nearest calibration neighbours"), std::string::npos);
}

// --- htd_explain_lib journal surface ----------------------------------------

std::string valid_journal() {
    return
        R"({"boundary":"","chip":"","detail":"","kind":"calibration","lot":"","schema":"htd.events.v1","seq":1,"span":0,"ts_ns":1,"values":{}})"
        "\n"
        R"({"boundary":"B4","chip":"","detail":"","kind":"boundary_fallback","lot":"","schema":"htd.events.v1","seq":2,"span":0,"ts_ns":2,"values":{"effective_sample_size":2.5}})"
        "\n"
        R"({"boundary":"B5","chip":"7","detail":"","kind":"chip_scored","lot":"","schema":"htd.events.v1","seq":3,"span":0,"ts_ns":3,"values":{"decision":-0.25,"inside":0}})"
        "\n";
}

TEST(JournalCheckText, AcceptsAValidJournal) {
    const explain_cli::JournalCheck check =
        explain_cli::check_journal_text(valid_journal());
    EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);
    EXPECT_EQ(check.records, 3u);
    EXPECT_EQ(check.last_seq, 3u);
    EXPECT_EQ(check.kinds.at("chip_scored"), 1u);
}

TEST(JournalCheckText, RejectsMalformedSchemaSequenceAndKind) {
    const explain_cli::JournalCheck malformed =
        explain_cli::check_journal_text("{not json\n");
    EXPECT_FALSE(malformed.ok);

    const explain_cli::JournalCheck wrong_schema = explain_cli::check_journal_text(
        R"({"kind":"calibration","schema":"htd.trace.v1","seq":1})" "\n");
    EXPECT_FALSE(wrong_schema.ok);

    const explain_cli::JournalCheck bad_kind = explain_cli::check_journal_text(
        R"({"kind":"chip_zapped","schema":"htd.events.v1","seq":1})" "\n");
    EXPECT_FALSE(bad_kind.ok);
    EXPECT_NE(bad_kind.errors[0].find("chip_zapped"), std::string::npos);

    const explain_cli::JournalCheck non_monotone = explain_cli::check_journal_text(
        R"({"kind":"calibration","schema":"htd.events.v1","seq":2})" "\n"
        R"({"kind":"calibration","schema":"htd.events.v1","seq":2})" "\n");
    EXPECT_FALSE(non_monotone.ok);
    EXPECT_NE(non_monotone.errors[0].find("strictly increasing"),
              std::string::npos);
}

TEST(JournalQueryText, FiltersByChipKindAndSince) {
    const std::string text = valid_journal();
    explain_cli::JournalQuery by_chip;
    by_chip.chip = "7";
    ASSERT_EQ(explain_cli::query_journal_text(text, by_chip).size(), 1u);
    EXPECT_EQ(explain_cli::query_journal_text(text, by_chip)[0]
                  .at("kind")
                  .str(),
              "chip_scored");

    explain_cli::JournalQuery by_kind;
    by_kind.kind = "boundary_fallback";
    ASSERT_EQ(explain_cli::query_journal_text(text, by_kind).size(), 1u);

    explain_cli::JournalQuery since;
    since.since = 2;
    EXPECT_EQ(explain_cli::query_journal_text(text, since).size(), 2u);

    explain_cli::JournalQuery nothing;
    nothing.chip = "7";
    nothing.kind = "calibration";
    EXPECT_TRUE(explain_cli::query_journal_text(text, nothing).empty());
}

TEST(JournalRenderEvent, CarriesSequenceKindAndValues) {
    const std::vector<io::Json> events =
        explain_cli::query_journal_text(valid_journal(), {});
    ASSERT_EQ(events.size(), 3u);
    const std::string line = explain_cli::render_event(events[2]);
    EXPECT_NE(line.find("#3"), std::string::npos);
    EXPECT_NE(line.find("chip_scored"), std::string::npos);
    EXPECT_NE(line.find("chip=7"), std::string::npos);
    EXPECT_NE(line.find("boundary=B5"), std::string::npos);
    EXPECT_NE(line.find("decision=-0.25"), std::string::npos);
}

TEST(ExplainCliRun, HelpExitsCleanAndUnknownCommandFails) {
    const char* help[] = {"htd_explain", "--help"};
    EXPECT_EQ(explain_cli::run(2, help), explain_cli::kExitOk);
    const char* unknown[] = {"htd_explain", "frobnicate"};
    EXPECT_EQ(explain_cli::run(2, unknown), explain_cli::kExitError);
    const char* none[] = {"htd_explain"};
    EXPECT_EQ(explain_cli::run(1, none), explain_cli::kExitError);
}

}  // namespace
