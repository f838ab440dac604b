#pragma once
/// \file lint.hpp
/// htd_lint v4: the project-invariant analyzer behind `scripts/check.sh
/// --analyze`. clang-tidy proves general C++ hygiene; these passes encode
/// *project* contracts that no generic checker can express.
///
/// Line rules (v1, token patterns within one physical line; comments and
/// literals never match):
///
///   rng-seed            Deterministic reproducibility: no
///                       `std::random_device`, no default-constructed
///                       standard engines — every generator takes an
///                       explicit seed.
///   std-random-in-library
///                       Library code (src/, outside src/rng/) draws
///                       randomness through `htd::rng::Rng`, never raw
///                       `<random>` engines/distributions, so one seed
///                       reproduces a whole experiment.
///   raw-nan-check       `std::isnan` / `std::isinf` on measurement data
///                       belongs in `core::MeasurementValidator`
///                       (src/pipeline/ingest.*); other sites need a vetted
///                       allowlist entry explaining why they screen
///                       floats themselves.
///   stdio-in-library    Library code never prints (`printf` family,
///                       `std::cout` / `std::cerr`); output goes through
///                       the `htd::obs` sinks. src/obs/ itself is exempt —
///                       it *is* the sink layer.
///   header-hygiene      Headers under src/ start with `#pragma once` and
///                       declare into the `htd::` namespace.
///   stream-unchecked    A `std::ifstream` / `std::ofstream` must have its
///                       open/error state checked near the construction
///                       site (CSV/JSON ingestion silently reading an
///                       unopened stream was the PR 2 failure mode).
///
/// Structural passes (v2, over the lexer's token stream — see lexer.hpp):
///
///   layering            The module DAG under src/ obeys the layering
///                       declared in tools/htd_lint/layers.txt: a module
///                       may include only modules on strictly lower
///                       layers (or itself). Peers sharing a layer are
///                       mutually independent. Diagnostics carry the
///                       offending include edge; see DESIGN.md §12.
///   include-cycle       No cycle in the file-level include graph; the
///                       diagnostic prints the full include chain.
///   layer-unmapped      Every src/ module appears in layers.txt, so the
///                       layering contract cannot silently not apply.
///   missing-nodiscard   Every public value-returning function declared in
///                       a src/ header is `[[nodiscard]]`. Exemptions:
///                       reference returns (chaining), operators,
///                       constructors/destructors, `friend`/`using`
///                       declarations, and out-of-line definitions (the
///                       in-class declaration carries the attribute).
///                       With the attribute in a header, -Werror turns a
///                       dropped result into a build error; the must-use
///                       decision types (`BoundaryStatus`,
///                       `QuarantineSummary`, `IngestResult`) carry it on
///                       the type itself (DESIGN.md §12).
///   work-counter-name   (v3) A literal name passed to `work_add` in src/
///                       must be `work.<stage>.<quantity>` (lowercase
///                       [a-z0-9_] segments, exactly two dots) so
///                       htd_profile can attribute it (DESIGN.md §13).
///   artifact-schema-version
///                       (v4) The `htd.boundary.*` artifact schema string
///                       may be spelled as a literal only in its defining
///                       header, src/pipeline/artifact.hpp; any other
///                       string literal containing the prefix in src/ or
///                       tools/ forks the compatibility contract and skews
///                       silently on the next version bump (DESIGN.md §14).
///                       tools/htd_lint/ itself is exempt.
///
/// Determinism passes (v4 of the tool, DESIGN.md §16 — they guard
/// same-seed byte identity across `Registry::reset` and repeated runs in
/// one process; scoped to src/ and tools/):
///
///   global-mutable-state
///                       Namespace-scope and function-local `static` /
///                       `thread_local` mutable variables outlive
///                       `Registry::reset` and carry state from one run
///                       into the next in the same process. Each site is
///                       flagged unless the declarator carries
///                       `HTD_SHARED_STATE_OK("reason")`
///                       (src/core/annotations.hpp); surviving annotations
///                       are surfaced — with their justifications — in the
///                       JSON report so the audit cannot rot.
///   unordered-iteration-escape
///                       A range-for over a `std::unordered_map` /
///                       `unordered_set` whose body writes to a stream,
///                       `io::Json`, or an append-only container leaks the
///                       hash table's iteration order, which the standard
///                       leaves unspecified, into serialized output. The
///                       diagnostic carries the chain: container
///                       declaration line, loop line, and the escaping
///                       write.
///   rng-discipline      Time-seeded engine constructions
///                       (`time(...)`/`...::now()` in ctor args) break
///                       same-seed reproducibility anywhere.
///
/// Every rule walks the one token stream lex() produces per file. The
/// analyzer scans files single-threaded in sorted path order (a cold scan
/// of this tree takes about 0.1 s, so there is no cache and no thread
/// pool), runs the global passes over the per-file extractions, orders
/// diagnostics deterministically, and emits the `htd_lint.v4` JSON schema.
/// Findings can be suppressed through an allowlist file (`<rule>
/// <path-suffix>  # justification` per line); unused entries are reported
/// so the allowlist cannot silently rot, and the surviving entries are
/// emitted — with their justifications — in the JSON report for audits.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace htd::lint {

/// One diagnostic: `file:line: [rule] message`.
struct Finding {
    std::string file;  ///< forward-slash path as walked
    std::size_t line = 0;  ///< 1-based
    std::string rule;
    std::string message;
};

/// One allowlist entry: suppress `rule` findings in files whose path ends
/// with `path_suffix`. `rule == "*"` matches every rule. `justification`
/// is the trailing `#` comment of the entry's line — the audit trail for
/// why the invariant does not apply at that site.
struct AllowEntry {
    std::string rule;
    std::string path_suffix;
    std::string justification;
};

/// Parse allowlist text: one `<rule> <path-suffix>` per line, `#` starts
/// a comment (a trailing comment becomes the entry's justification),
/// blank lines ignored. Throws std::runtime_error naming the line on a
/// malformed entry.
[[nodiscard]] std::vector<AllowEntry> parse_allowlist(const std::string& text);

/// The rule ids in reporting order.
[[nodiscard]] const std::vector<std::string>& rule_ids();

/// The declared module layering: `layers[0]` is the bottom. Modules on
/// the same line of layers.txt share a layer and are mutually
/// independent peers.
struct LayerSpec {
    std::vector<std::vector<std::string>> layers;
    std::map<std::string, int> rank;  ///< module -> index into layers

    [[nodiscard]] bool empty() const noexcept { return layers.empty(); }
};

/// Parse a layering spec: one layer per line, bottom first, modules
/// separated by whitespace, `#` starts a comment. Throws
/// std::runtime_error on a duplicated module.
[[nodiscard]] LayerSpec parse_layers(const std::string& text);

/// Everything the per-file scan extracts from one translation unit; the
/// global passes (layering, include-cycle) run over these.
struct FileAnalysis {
    struct Include {
        std::string target;  ///< quoted include text, e.g. "io/json.hpp"
        std::size_t line = 0;
    };
    /// One surviving `HTD_SHARED_STATE_OK("reason")` site: the audit trail
    /// for deliberately shared mutable state (global-mutable-state pass).
    struct Annotation {
        std::string symbol;  ///< annotated variable name
        std::size_t line = 0;
        std::string justification;
    };

    std::vector<Finding> findings;       ///< per-file findings (line rules + nodiscard)
    std::vector<Include> includes;       ///< quoted includes, in order
    std::vector<Annotation> annotations; ///< audited shared-state sites
};

/// Scan one in-memory file: line rules, include extraction, declaration
/// scan (src/ headers). `path` selects which rules apply and is echoed
/// into findings.
[[nodiscard]] FileAnalysis analyze_file(const std::string& path,
                                        const std::string& contents);

/// Per-file findings only (line rules + missing-nodiscard) — the v1
/// entry point, kept for fixtures. Cross-file passes need lint_paths.
[[nodiscard]] std::vector<Finding> lint_source(const std::string& path,
                                               const std::string& contents);

/// One surviving allowlist entry and how many findings it suppressed.
struct AllowUsage {
    AllowEntry entry;
    std::size_t hits = 0;
};

/// One surviving shared-state annotation, with the file it lives in.
struct ReportAnnotation {
    std::string file;
    std::size_t line = 0;
    std::string symbol;
    std::string justification;
};

/// Aggregate result of a tree walk.
struct Report {
    std::vector<Finding> findings;  ///< after allowlist filtering
    std::size_t files_checked = 0;
    std::size_t suppressed = 0;  ///< findings removed by the allowlist
    /// Allowlist entries that suppressed nothing (stale — rot guard).
    std::vector<AllowEntry> unused_allow;
    /// Allowlist entries that did suppress findings, with hit counts.
    std::vector<AllowUsage> allow_usage;
    /// Surviving HTD_SHARED_STATE_OK sites with their justifications,
    /// sorted by (file, line) — the shared-state audit trail.
    std::vector<ReportAnnotation> annotations;

    [[nodiscard]] bool clean() const noexcept { return findings.empty(); }
};

/// Analyzer configuration for lint_paths.
struct Options {
    std::vector<AllowEntry> allow;
    /// Module layering to enforce; empty disables the layering pass.
    LayerSpec layers;
};

/// Lint every *.cpp / *.hpp under `paths` (files or directories, walked
/// recursively in sorted order). Diagnostic order is deterministic.
/// Throws std::runtime_error for a path that does not exist or a file
/// that cannot be read.
[[nodiscard]] Report lint_paths(const std::vector<std::string>& paths,
                                const Options& options);

/// Machine-readable report (schema "htd_lint.v4"):
/// {"schema", "findings": [{file,line,rule,message}], "files_checked",
///  "suppressed", "annotations": [{file,line,symbol,justification}],
///  "allowlist": [{rule,path_suffix,justification,findings_suppressed}],
///  "unused_allowlist_entries": [{rule,path_suffix}]}.
[[nodiscard]] io::Json report_json(const Report& report);

/// Human-readable rendering: one `file:line: [rule] message` per finding
/// plus a summary line.
[[nodiscard]] std::string report_text(const Report& report);

}  // namespace htd::lint
