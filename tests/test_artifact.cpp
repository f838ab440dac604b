/// \file test_artifact.cpp
/// The htd.boundary.v1 calibrate/score contract (DESIGN.md §14): a clean
/// artifact reproduces the in-process pipeline's decision values bitwise;
/// every injected corruption mode is either rejected with a typed
/// ArtifactError or survived with the damage recorded loudly (failed
/// sections + degraded BoundaryStatus) while the surviving boundaries keep
/// scoring; strict mode turns every recorded degradation into a rejection.
/// Plus the stage-3 journal contract the pipeline and the scorer share.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "io/json.hpp"
#include "obs/journal.hpp"
#include "obs/obs.hpp"
#include "pipeline/artifact.hpp"
#include "pipeline/artifact_fault.hpp"
#include "pipeline/experiment.hpp"
#include "pipeline/scorer.hpp"

namespace {

using namespace htd;

/// Calibrates one reduced-budget pipeline for the whole suite and keeps the
/// pristine artifact around as text — the unit every corruption test
/// perturbs.
class ArtifactSuite : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        core::ExperimentConfig config;
        config.n_chips = 10;
        config.pipeline.monte_carlo_samples = 40;
        config.pipeline.synthetic_samples = 3000;

        const silicon::DuttDataset devices = core::measure_lot(config);
        fingerprints_ = devices.fingerprints;
        pipeline_ = core::calibrate_pipeline(config, devices.pcms);

        seed_ = config.seed;
        artifact_doc_ = core::BoundaryArtifact::from_pipeline(*pipeline_, seed_,
                                                              "test_artifact")
                            .to_json();
        artifact_text_ = artifact_doc_.dump(2) + "\n";
    }

    static void TearDownTestSuite() { pipeline_.reset(); }

    /// Temp path unique to this process; removed by the caller.
    static std::string temp_path(const std::string& tag) {
        return (std::filesystem::temp_directory_path() /
                ("htd_artifact_test_" + tag + "_" + std::to_string(::getpid()) +
                 ".json"))
            .string();
    }

    /// Scorer decision values must equal the pipeline's exactly — the
    /// bitwise-parity acceptance criterion, checked with EXPECT_EQ on
    /// doubles (no tolerance).
    static void expect_bitwise_parity(const core::BoundaryScorer& scorer,
                                      core::Boundary b) {
        const linalg::Vector expected =
            pipeline_->decision_values(b, fingerprints_);
        const linalg::Vector got = scorer.decision_values(b, fingerprints_);
        ASSERT_EQ(got.size(), expected.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i], expected[i])
                << core::boundary_name(b) << " device " << i;
        }
    }

    static std::unique_ptr<core::GoldenFreePipeline> pipeline_;
    static linalg::Matrix fingerprints_;
    static io::Json artifact_doc_;
    static std::string artifact_text_;
    static std::uint64_t seed_;
};

std::unique_ptr<core::GoldenFreePipeline> ArtifactSuite::pipeline_;
linalg::Matrix ArtifactSuite::fingerprints_;
io::Json ArtifactSuite::artifact_doc_;
std::string ArtifactSuite::artifact_text_;
std::uint64_t ArtifactSuite::seed_;

/// Recompute a section's name-bound CRC after tampering with its payload.
double recomputed_crc(const std::string& name, const io::Json& payload) {
    std::string bytes = name;
    bytes.push_back('\0');
    bytes += payload.dump(0);
    return static_cast<double>(core::crc32(bytes));
}

TEST_F(ArtifactSuite, CleanRoundTripScoresBitIdentical) {
    core::ArtifactLoadReport rep;
    core::BoundaryScorer scorer(
        core::BoundaryArtifact::from_json(artifact_doc_, {}, &rep));
    EXPECT_TRUE(rep.notes.empty());
    EXPECT_TRUE(rep.failed_sections.empty());

    EXPECT_EQ(scorer.artifact().provenance().seed, seed_);
    EXPECT_EQ(scorer.artifact().provenance().tool, "test_artifact");
    for (const core::Boundary b : core::kAllBoundaries) {
        EXPECT_EQ(scorer.boundary_status(b).health,
                  pipeline_->boundary_status(b).health)
            << core::boundary_name(b);
        ASSERT_EQ(scorer.boundary_ready(b), pipeline_->boundary_ready(b));
        if (scorer.boundary_ready(b)) expect_bitwise_parity(scorer, b);
    }
}

TEST_F(ArtifactSuite, WritesExactlyTheSectionsScoringReads) {
    std::vector<std::string> names;
    for (const auto& [name, entry] : artifact_doc_.at("sections").members()) {
        names.push_back(name);
    }
    EXPECT_EQ(names, (std::vector<std::string>{
                         "boundary.B1", "boundary.B2", "boundary.B3", "boundary.B4",
                         "boundary.B5", "config", "kde", "provenance", "status"}));
}

TEST_F(ArtifactSuite, AtomicSaveThenLoadIsByteStable) {
    const std::string path = temp_path("save");
    core::BoundaryArtifact::from_json(artifact_doc_).save(path);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    const core::BoundaryArtifact loaded = core::BoundaryArtifact::load(path);
    EXPECT_EQ(loaded.to_json().dump(2), artifact_doc_.dump(2));
    std::filesystem::remove(path);
}

TEST_F(ArtifactSuite, VersionSkewIsRejected) {
    io::Json doc = artifact_doc_;
    doc.set("version", core::kBoundaryArtifactVersion + 1);
    try {
        (void)core::BoundaryArtifact::from_json(doc);
        FAIL() << "version skew accepted";
    } catch (const core::ArtifactError& e) {
        EXPECT_EQ(e.artifact_code(), core::ArtifactErrorCode::kVersionSkew);
    }

    doc.set("schema", "htd.bscores.v1");
    try {
        (void)core::BoundaryArtifact::from_json(doc);
        FAIL() << "wrong schema accepted";
    } catch (const core::ArtifactError& e) {
        EXPECT_EQ(e.artifact_code(), core::ArtifactErrorCode::kSchema);
    }
}

TEST_F(ArtifactSuite, ConfigHashMismatchIsRejected) {
    // Tamper with the config payload and recompute the CRC so the hash
    // check — not the CRC — is what trips: a config swapped wholesale (CRC
    // intact relative to its own bytes) must still be refused.
    io::Json doc = artifact_doc_;
    io::Json sections = doc.at("sections");
    io::Json entry = sections.at("config");
    io::Json payload = entry.at("payload");
    payload.set("tampered", true);
    entry.set("crc32", recomputed_crc("config", payload));
    entry.set("payload", std::move(payload));
    sections.set("config", std::move(entry));
    doc.set("sections", std::move(sections));

    try {
        (void)core::BoundaryArtifact::from_json(doc);
        FAIL() << "config-hash mismatch accepted";
    } catch (const core::ArtifactError& e) {
        EXPECT_EQ(e.artifact_code(), core::ArtifactErrorCode::kConfigHash);
        EXPECT_EQ(e.section(), "provenance");
    }
}

TEST_F(ArtifactSuite, CorruptBoundarySectionDegradesJustThatBoundary) {
    // Flip the stored CRC of boundary.B5: tolerant load must mark exactly
    // B5 failed (with the rejection recorded in its status detail) and keep
    // every other boundary scoring bitwise-identically; strict load refuses.
    io::Json doc = artifact_doc_;
    io::Json sections = doc.at("sections");
    io::Json entry = sections.at("boundary.B5");
    entry.set("crc32", entry.at("crc32").number() + 1.0);
    sections.set("boundary.B5", std::move(entry));
    doc.set("sections", std::move(sections));

    core::ArtifactLoadReport rep;
    core::BoundaryScorer scorer(
        core::BoundaryArtifact::from_json(doc, {}, &rep));
    ASSERT_EQ(rep.failed_sections.size(), 1u);
    EXPECT_EQ(rep.failed_sections[0], "boundary.B5");

    const core::BoundaryStatus& st = scorer.boundary_status(core::Boundary::kB5);
    EXPECT_EQ(st.health, core::BoundaryHealth::kFailed);
    EXPECT_NE(st.detail.find("artifact section rejected"), std::string::npos)
        << st.detail;
    EXPECT_FALSE(scorer.boundary_ready(core::Boundary::kB5));
    EXPECT_THROW((void)scorer.classify(core::Boundary::kB5, fingerprints_),
                 core::BoundaryUnavailableError);

    for (const core::Boundary b :
         {core::Boundary::kB1, core::Boundary::kB2, core::Boundary::kB3,
          core::Boundary::kB4}) {
        if (!pipeline_->boundary_ready(b)) continue;
        ASSERT_TRUE(scorer.boundary_ready(b)) << core::boundary_name(b);
        expect_bitwise_parity(scorer, b);
    }

    EXPECT_THROW((void)core::BoundaryArtifact::from_json(doc, {.strict = true}),
                 core::ArtifactError);
}

TEST_F(ArtifactSuite, SectionSwapFailsBothNameBoundCrcs) {
    // Swapping two intact payloads must fail both sections: the CRC binds
    // the section *name*, so byte-identical payloads cannot migrate.
    io::Json doc = artifact_doc_;
    io::Json sections = doc.at("sections");
    io::Json b1 = sections.at("boundary.B1");
    io::Json b3 = sections.at("boundary.B3");
    sections.set("boundary.B1", std::move(b3));
    sections.set("boundary.B3", std::move(b1));
    doc.set("sections", std::move(sections));

    core::ArtifactLoadReport rep;
    core::BoundaryScorer scorer(
        core::BoundaryArtifact::from_json(doc, {}, &rep));
    ASSERT_EQ(rep.failed_sections.size(), 2u);
    EXPECT_EQ(scorer.boundary_status(core::Boundary::kB1).health,
              core::BoundaryHealth::kFailed);
    EXPECT_EQ(scorer.boundary_status(core::Boundary::kB3).health,
              core::BoundaryHealth::kFailed);
    if (pipeline_->boundary_ready(core::Boundary::kB4)) {
        expect_bitwise_parity(scorer, core::Boundary::kB4);
    }
}

/// One tolerant-section rejection, pinned byte for byte: which section is
/// damaged, how, and what the tolerant and strict loads must report.
struct SectionRejection {
    std::string section;
    bool crc = false;      ///< flip the stored CRC (else a malformed payload)
    std::string message;   ///< the decoder's message for a malformed payload
    std::string key;       ///< payload member replaced by `value`
    io::Json value;
};

TEST_F(ArtifactSuite, TolerantSectionRejectionsArePinned) {
    const std::vector<SectionRejection> cases = {
        {"kde", true, "", "", io::Json()},
        {"kde", false, "kde: missing member 'pilot'", "s5", io::Json("x")},
        {"boundary.B3", true, "", "", io::Json()},
        {"boundary.B3", false, "fingerprint_dim: expected a non-negative integer",
         "fingerprint_dim", io::Json(-1.0)},
    };
    for (const SectionRejection& c : cases) {
        SCOPED_TRACE(c.section + (c.crc ? " crc" : " malformed"));
        io::Json doc = artifact_doc_;
        io::Json sections = doc.at("sections");
        io::Json entry = sections.at(c.section);
        const auto crc = static_cast<std::uint32_t>(entry.at("crc32").number());
        std::string why = c.message;
        if (c.crc) {
            const std::uint32_t flipped = crc ^ 1U;
            entry.set("crc32", static_cast<double>(flipped));
            why = "[artifact] artifact section_crc [section " + c.section +
                  "]: stored CRC " + std::to_string(flipped) + " != computed " +
                  std::to_string(crc);
        } else {
            io::Json payload = entry.at("payload");
            payload.set(c.key, c.value);
            entry.set("crc32", recomputed_crc(c.section, payload));
            entry.set("payload", std::move(payload));
        }
        sections.set(c.section, std::move(entry));
        doc.set("sections", std::move(sections));

        core::ArtifactLoadReport rep;
        const core::BoundaryArtifact artifact =
            core::BoundaryArtifact::from_json(doc, {}, &rep);
        ASSERT_EQ(rep.failed_sections, std::vector<std::string>{c.section});
        if (c.section == "boundary.B3") {
            EXPECT_EQ(rep.notes, std::vector<std::string>{
                                     "boundary B3 failed artifact validation: " + why});
            const core::BoundaryStatus& st =
                artifact.boundary_status(core::Boundary::kB3);
            EXPECT_EQ(st.health, core::BoundaryHealth::kFailed);
            EXPECT_EQ(st.detail, "artifact section rejected: " + why);
            EXPECT_FALSE(artifact.svm(core::Boundary::kB3).has_value());
            EXPECT_EQ(artifact.fingerprint_dim(core::Boundary::kB3), 0u);
        } else {
            EXPECT_EQ(rep.notes, std::vector<std::string>{
                                     "section " + c.section + " rejected: " + why});
        }
        // The rejected section's state is reset, not half-decoded.
        if (c.section == "kde") {
            EXPECT_FALSE(artifact.kde_s2().has_value());
            EXPECT_FALSE(artifact.kde_s5().has_value());
        }

        try {
            (void)core::BoundaryArtifact::from_json(doc, {.strict = true});
            FAIL() << "strict load accepted a rejected section";
        } catch (const core::ArtifactError& e) {
            EXPECT_EQ(e.artifact_code(), c.crc ? core::ArtifactErrorCode::kSectionCrc
                                               : core::ArtifactErrorCode::kMalformed);
            EXPECT_EQ(e.section(), c.section);
        }
    }
}

TEST_F(ArtifactSuite, ParseErrorCarriesTheByteOffset) {
    // Turn the opening quote of the "sections" key into a byte no object
    // member can start with: the parser stops exactly there.
    std::string text = artifact_text_;
    const std::size_t at = text.find("\"sections\"");
    ASSERT_NE(at, std::string::npos);
    text[at] = '#';
    const std::string path = temp_path("parse_offset");
    {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.is_open());
        out << text;
    }
    try {
        (void)core::BoundaryArtifact::load(path);
        FAIL() << "an invalid byte was accepted";
    } catch (const core::ArtifactError& e) {
        EXPECT_EQ(e.artifact_code(), core::ArtifactErrorCode::kParse);
        EXPECT_EQ(e.offset(), at);
    }
    std::filesystem::remove(path);
}

TEST_F(ArtifactSuite, LegacyConfigKeysStillLoadAndScoreAlike) {
    // Artifacts written while PipelineConfig still had its log-PCM and
    // KMM-fallback switches store both as config keys. The loader hashes
    // the stored config as stored, so such an artifact (its config CRC and
    // config_hash recomputed, as the old writer did) loads cleanly and
    // scores exactly like the artifact without them.
    io::Json doc = artifact_doc_;
    io::Json sections = doc.at("sections");
    io::Json config = sections.at("config").at("payload");
    config.set("log_transform_pcm", true);
    config.set("kmm_fallback_to_b3", true);
    io::Json provenance = sections.at("provenance").at("payload");
    provenance.set("config_hash", core::config_fingerprint(config));
    const auto reseal = [&sections](const std::string& name, const io::Json& payload) {
        io::Json entry = io::Json::object();
        entry.set("crc32", recomputed_crc(name, payload));
        entry.set("payload", payload);
        sections.set(name, std::move(entry));
    };
    reseal("config", config);
    reseal("provenance", provenance);
    doc.set("sections", std::move(sections));

    core::ArtifactLoadReport rep;
    const core::BoundaryScorer legacy(core::BoundaryArtifact::from_json(doc, {}, &rep));
    EXPECT_TRUE(rep.notes.empty());
    EXPECT_TRUE(rep.failed_sections.empty());
    EXPECT_TRUE(legacy.artifact().config_json().at("log_transform_pcm").boolean());

    const core::BoundaryScorer clean(core::BoundaryArtifact::from_json(artifact_doc_));
    for (const core::Boundary b : core::kAllBoundaries) {
        ASSERT_EQ(legacy.boundary_ready(b), clean.boundary_ready(b))
            << core::boundary_name(b);
        if (!legacy.boundary_ready(b)) continue;
        const linalg::Vector want = clean.decision_values(b, fingerprints_);
        const linalg::Vector got = legacy.decision_values(b, fingerprints_);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i], want[i]) << core::boundary_name(b) << " device " << i;
        }
    }
}

TEST_F(ArtifactSuite, PreviousLayoutSectionsAreIgnored) {
    // Artifacts written before the MARS bank and the KMM record left the
    // format carry `mars` and `kmm` sections. The loader looks sections up
    // by name, so both are ignored, even with a CRC that no longer matches:
    // tolerant and strict loads are clean and score exactly as in-process.
    io::Json doc = artifact_doc_;
    io::Json sections = doc.at("sections");
    io::Json mars = io::Json::object();
    mars.set("opts", core::canonical_config_json(pipeline_->config()).at("mars"));
    mars.set("models", io::Json::array());
    io::Json mars_entry = io::Json::object();
    mars_entry.set("crc32", recomputed_crc("mars", mars));
    mars_entry.set("payload", std::move(mars));
    sections.set("mars", std::move(mars_entry));
    io::Json kmm = io::Json::object();
    kmm.set("present", false);
    kmm.set("iterations", 0.0);
    io::Json kmm_entry = io::Json::object();
    kmm_entry.set("crc32", recomputed_crc("kmm", kmm) + 1.0);  // stale CRC
    kmm_entry.set("payload", std::move(kmm));
    sections.set("kmm", std::move(kmm_entry));
    doc.set("sections", std::move(sections));

    for (const bool strict : {false, true}) {
        SCOPED_TRACE(strict ? "strict" : "tolerant");
        core::ArtifactLoadReport rep;
        const core::BoundaryScorer old(
            core::BoundaryArtifact::from_json(doc, {.strict = strict}, &rep));
        EXPECT_TRUE(rep.notes.empty());
        EXPECT_TRUE(rep.failed_sections.empty());
        for (const core::Boundary b : core::kAllBoundaries) {
            ASSERT_EQ(old.boundary_ready(b), pipeline_->boundary_ready(b))
                << core::boundary_name(b);
            if (old.boundary_ready(b)) expect_bitwise_parity(old, b);
        }
    }
}

/// Every injector mode, several seeds each: the artifact is either rejected
/// with a typed ArtifactError or loads with the damage recorded and the
/// surviving boundaries still scoring bitwise-identically. Strict mode
/// rejects whatever the tolerant path merely degraded.
class ArtifactFaultSweep
    : public ArtifactSuite,
      public ::testing::WithParamInterface<core::ArtifactFault> {};

TEST_P(ArtifactFaultSweep, EveryCorruptionIsRejectedOrSurvivedLoudly) {
    const core::ArtifactFault fault = GetParam();
    const std::string path =
        temp_path(std::string("fault_") + core::artifact_fault_name(fault));

    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        std::string text = artifact_text_;
        core::ArtifactFaultInjector injector(seed);
        const std::string what = injector.corrupt(text, fault);
        SCOPED_TRACE(what + " (seed " + std::to_string(seed) + ")");

        std::filesystem::remove(path);
        {
            std::ofstream out(path, std::ios::binary);
            ASSERT_TRUE(out.is_open());
            out << text;
        }

        bool rejected = false;
        try {
            core::ArtifactLoadReport rep;
            const core::BoundaryScorer scorer(
                core::BoundaryArtifact::load(path, {}, &rep));
            // Survived: the damage must be visible, never silent, and the
            // boundaries that made it through still score exactly.
            EXPECT_FALSE(rep.failed_sections.empty());
            for (const core::Boundary b : core::kAllBoundaries) {
                if (!scorer.boundary_ready(b)) continue;
                expect_bitwise_parity(scorer, b);
            }
            // ... and strict mode refuses what tolerant mode degraded.
            EXPECT_THROW(
                (void)core::BoundaryArtifact::load(path, {.strict = true}),
                core::ArtifactError);
        } catch (const core::ArtifactError& e) {
            rejected = true;
            EXPECT_NE(std::string(e.what()).find("artifact"), std::string::npos);
        }

        // Truncation and version skew can never be scored around.
        if (fault == core::ArtifactFault::kTruncate ||
            fault == core::ArtifactFault::kStaleVersion) {
            EXPECT_TRUE(rejected);
        }
    }
    std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    AllFaults, ArtifactFaultSweep,
    ::testing::Values(core::ArtifactFault::kTruncate,
                      core::ArtifactFault::kBitFlip,
                      core::ArtifactFault::kSectionSwap,
                      core::ArtifactFault::kStaleVersion),
    [](const ::testing::TestParamInfo<core::ArtifactFault>& fault_info) {
        switch (fault_info.param) {
            case core::ArtifactFault::kTruncate: return std::string("Truncate");
            case core::ArtifactFault::kBitFlip: return std::string("BitFlip");
            case core::ArtifactFault::kSectionSwap:
                return std::string("SectionSwap");
            case core::ArtifactFault::kStaleVersion:
                return std::string("StaleVersion");
        }
        return std::string("Unknown");
    });


// --- stage-3 journal contract ----------------------------------------------------

/// One journaled verdict: (chip, boundary, decision, inside).
using ScoredEvent = std::tuple<std::string, std::string, double, double>;

struct Stage3Run {
    std::vector<bool> verdicts;
    std::vector<ScoredEvent> events;  ///< chip_scored events, journal order
    double devices = 0.0;             ///< work.score.devices added
};

/// classify() with the event journal (in-memory) and the obs registry on.
template <typename Classify>
Stage3Run journaled(Classify&& classify) {
    obs::Registry& registry = obs::Registry::global();
    obs::EventJournal& journal = obs::EventJournal::global();
    registry.configure(obs::SinkKind::kJson);
    registry.reset();
    journal.enable_memory();
    Stage3Run run;
    run.verdicts = classify();
    for (const obs::Event& ev : journal.recent()) {
        EXPECT_EQ(ev.kind, obs::EventKind::kChipScored);
        EXPECT_EQ(ev.values.size(), 2u);
        if (ev.values.size() != 2) continue;
        EXPECT_EQ(ev.values[0].first, "decision");
        EXPECT_EQ(ev.values[1].first, "inside");
        run.events.emplace_back(ev.chip, ev.boundary, ev.values[0].second,
                                ev.values[1].second);
    }
    run.devices = registry.work_value("work.score.devices");
    journal.close();
    registry.configure(obs::SinkKind::kOff);
    registry.reset();
    return run;
}

/// GoldenFreePipeline and a BoundaryScorer built from it share one stage-3
/// body: on a quickstart-scale lot, journaling never changes a verdict,
/// both write the same chip_scored sequence, and both count every device.
TEST(Stage3Contract, PipelineAndScorerJournalAndCountAlike) {
    core::ExperimentConfig config;
    config.n_chips = 12;  // quickstart: 36 devices
    config.pipeline.synthetic_samples = 20000;

    const silicon::DuttDataset devices = core::measure_lot(config);
    const linalg::Matrix& fingerprints = devices.fingerprints;
    const std::unique_ptr<core::GoldenFreePipeline> fitted =
        core::calibrate_pipeline(config, devices.pcms);
    const core::GoldenFreePipeline& pipeline = *fitted;
    const core::BoundaryScorer scorer(
        core::BoundaryArtifact::from_pipeline(pipeline, config.seed, "test_artifact"));
    ASSERT_FALSE(obs::EventJournal::global().enabled());

    for (const core::Boundary b : core::kAllBoundaries) {
        SCOPED_TRACE(core::boundary_name(b));
        ASSERT_TRUE(pipeline.boundary_ready(b));
        const std::vector<bool> silent = pipeline.classify(b, fingerprints);
        EXPECT_EQ(scorer.classify(b, fingerprints), silent);

        const Stage3Run in_process =
            journaled([&] { return pipeline.classify(b, fingerprints); });
        const Stage3Run scored =
            journaled([&] { return scorer.classify(b, fingerprints); });
        EXPECT_EQ(in_process.verdicts, silent);
        EXPECT_EQ(scored.verdicts, silent);
        EXPECT_EQ(scored.events, in_process.events);
        ASSERT_EQ(in_process.events.size(), fingerprints.rows());
        for (std::size_t r = 0; r < fingerprints.rows(); ++r) {
            const auto& [chip, boundary, decision, inside] = in_process.events[r];
            EXPECT_EQ(chip, std::to_string(r));
            EXPECT_EQ(boundary, core::boundary_name(b));
            EXPECT_EQ(inside, silent[r] ? 1.0 : 0.0);
            EXPECT_EQ(decision >= 0.0, silent[r]);
        }
        EXPECT_EQ(in_process.devices, static_cast<double>(fingerprints.rows()));
        EXPECT_EQ(scored.devices, static_cast<double>(fingerprints.rows()));
    }
}

}  // namespace
