#pragma once
/// \file explain_cli.hpp
/// htd_explain core: validate/query/tail htd.events.v1 decision journals
/// and render per-chip htd.explain.v1 verdict attributions (computed by
/// core::BoundaryScorer::explain) as ranked human-readable text. Lives in
/// a static library (htd_explain_lib) so tests/test_explain.cpp can
/// exercise it without shelling out to the binary — the same split
/// htd_lint / htd_profile / htd_score use.
///
/// Subcommands (wired in run()):
///   explain   join an htd.boundary.v1 artifact, a fingerprint CSV and
///             (optionally) a journal into one chip's explanation
///   validate  structural check of a journal: every line parses, schema
///             tag matches, sequence strictly increases, each kind names
///             an obs::EventKind
///   query     filter journal events by --chip / --kind / --since <seq>
///   tail      the last N journal events

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace htd::explain_cli {

inline constexpr int kExitOk = 0;
inline constexpr int kExitError = 1;

/// Outcome of `htd_explain validate` (also run by scripts/check.sh
/// --determinism).
struct JournalCheck {
    bool ok = false;
    std::vector<std::string> errors;        ///< empty iff ok, "line N: ..."
    std::size_t records = 0;                ///< parsed event records
    std::uint64_t last_seq = 0;             ///< highest sequence number seen
    std::map<std::string, std::size_t> kinds;  ///< record count per kind
};

/// Validate journal text (one JSON event per line): every non-empty line
/// must parse as an object with schema "htd.events.v1", a kind that names
/// an obs::EventKind, and a strictly increasing positive "seq".
[[nodiscard]] JournalCheck check_journal_text(const std::string& text);

/// check_journal_text over a file; a missing/unreadable file is an error.
[[nodiscard]] JournalCheck check_journal_file(const std::string& path);

/// Event filter for `query` / `tail`. Empty string / zero = wildcard.
struct JournalQuery {
    std::string chip;         ///< match event "chip" field exactly
    std::string kind;         ///< match event "kind" field exactly
    std::uint64_t since = 0;  ///< keep events with seq >= since
};

/// Parse journal text and return the events matching `query`, in journal
/// order. Unparseable lines are skipped (use check_journal_* to reject
/// them loudly).
[[nodiscard]] std::vector<io::Json> query_journal_text(
    const std::string& text, const JournalQuery& query);

/// Render one htd.explain.v1 record (core::ExplainRecord::to_json shape)
/// as ranked human-readable text: verdict line, per-boundary table, top
/// channel contributions, nearest calibration neighbours, KDE tail mass.
[[nodiscard]] std::string render_explanation(const io::Json& record);

/// Render one htd.events.v1 event as a single human-readable line.
[[nodiscard]] std::string render_event(const io::Json& event);

/// Run the htd_explain CLI; never throws. 0 ok, 1 error (including a
/// journal that fails validation).
[[nodiscard]] int run(int argc, const char* const* argv);

}  // namespace htd::explain_cli
