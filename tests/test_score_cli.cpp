/// \file test_score_cli.cpp
/// The htd_score CLI contract (score_cli.hpp): --help documents the exit
/// codes (0 clean / 1 flagged-or-error / 2 artifact rejection) and the
/// decision-forensics flags, help exits clean, and usage errors map onto
/// exit code 1 — all driven in-process through htd_score_lib.

#include <gtest/gtest.h>

#include <string>

#include "score_cli.hpp"

namespace {

using namespace htd;

TEST(ScoreCliHelp, DocumentsExitCodesAndForensicsFlags) {
    const std::string& help = score_cli::help_text();
    EXPECT_NE(help.find("exit codes:"), std::string::npos);
    EXPECT_NE(help.find("0  clean"), std::string::npos);
    EXPECT_NE(help.find("1  flagged or error"), std::string::npos);
    EXPECT_NE(help.find("2  artifact rejected"), std::string::npos);
    EXPECT_NE(help.find("--journal <file>"), std::string::npos);
    EXPECT_NE(help.find("--explain <out.json>"), std::string::npos);
    EXPECT_NE(help.find("htd.events.v1"), std::string::npos);
    EXPECT_NE(help.find("htd.explain.v1"), std::string::npos);
    EXPECT_NE(help.find("HTD_OBS_NORMALIZE"), std::string::npos);
}

TEST(ScoreCliRun, HelpExitsClean) {
    for (const char* flag : {"--help", "-h", "help"}) {
        const char* argv[] = {"htd_score", flag};
        EXPECT_EQ(score_cli::run(2, argv), score_cli::kExitClean) << flag;
    }
}

TEST(ScoreCliRun, UsageErrorsExitOne) {
    const char* none[] = {"htd_score"};
    EXPECT_EQ(score_cli::run(1, none), score_cli::kExitFlaggedOrError);

    const char* unknown_command[] = {"htd_score", "frobnicate"};
    EXPECT_EQ(score_cli::run(2, unknown_command),
              score_cli::kExitFlaggedOrError);

    const char* unknown_flag[] = {"htd_score", "score", "--bogus"};
    EXPECT_EQ(score_cli::run(3, unknown_flag),
              score_cli::kExitFlaggedOrError);

    // score without its required flags is a usage error, not a crash.
    const char* missing[] = {"htd_score", "score"};
    EXPECT_EQ(score_cli::run(2, missing), score_cli::kExitFlaggedOrError);

    // a flag missing its value is reported, not read out of bounds.
    const char* dangling[] = {"htd_score", "score", "--artifact"};
    EXPECT_EQ(score_cli::run(3, dangling), score_cli::kExitFlaggedOrError);
}

TEST(ScoreCliRun, UnreadableArtifactIsRejectedWithExitTwo) {
    // An artifact that cannot even be opened is a typed ArtifactError —
    // the "never score against a corrupt artifact" contract maps every
    // artifact failure onto exit 2.
    const char* argv[] = {"htd_score",    "score",
                          "--artifact",   "/nonexistent/htd_artifact.json",
                          "--fingerprints", "/nonexistent/fp.csv",
                          "--bscores",    "/nonexistent/out.json"};
    EXPECT_EQ(score_cli::run(8, argv), score_cli::kExitArtifactRejected);
}

}  // namespace
