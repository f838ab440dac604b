/// Tests for tools/htd_lint: each rule trips on a seeded fixture, the
/// lexer-backed scanner ignores rule patterns inside comments / string
/// literals (including encoding-prefixed raw strings — the v1
/// regression), the three v4 determinism passes (global-mutable-state,
/// unordered-iteration-escape, rng-discipline) fire on seeded positives
/// and stay quiet on annotated/fixed negatives, the include-graph layering pass rejects back-edges, cycles and
/// unmapped modules with exact diagnostics, the missing-nodiscard pass
/// holds public header functions to [[nodiscard]], the allowlist
/// suppresses and reports stale entries with justifications, the --json
/// schema is stable, and — the self-test with teeth — the committed tree
/// itself lints clean under the committed allowlist and layering spec,
/// which is what keeps `scripts/check.sh --analyze` green.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "lint.hpp"

namespace {

namespace fs = std::filesystem;

using htd::io::Json;
using htd::lint::AllowEntry;
using htd::lint::Finding;
using htd::lint::LayerSpec;
using htd::lint::Options;
using htd::lint::Report;

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
    std::vector<std::string> out;
    out.reserve(findings.size());
    for (const Finding& f : findings) out.push_back(f.rule);
    return out;
}

bool has_rule(const std::vector<Finding>& findings, const std::string& rule) {
    for (const Finding& f : findings) {
        if (f.rule == rule) return true;
    }
    return false;
}

std::string dump_report(const Report& report) {
    return htd::lint::report_text(report);
}

// --- scanner ----------------------------------------------------------------

TEST(LintScanner, BlanksCommentsAndStrings) {
    const std::string src =
        "int a; // std::random_device in a comment\n"
        "/* std::cout in a block\n"
        "   comment */ int b;\n"
        "const char* s = \"std::random_device\";\n"
        "const char* r = R\"(std::random_device)\";\n"
        "void f() { std::random_device rd; (void)rd; }\n";
    // Only the real use on line 6 trips: line numbers survive the
    // multi-line comment.
    const std::vector<Finding> findings =
        htd::lint::lint_source("src/core/x.cpp", src);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "rng-seed");
    EXPECT_EQ(findings[0].line, 6u);
}

TEST(LintScanner, ContinuedStringKeepsPhysicalLineNumbers) {
    // A backslash-newline inside a string literal continues it onto the
    // next physical line; findings after it keep their physical line.
    const std::string src =
        "const char* s = \"first \\\n"
        "second\";\n"
        "void f() { std::random_device rd; (void)rd; }\n";
    const std::vector<Finding> findings =
        htd::lint::lint_source("bench/x.cpp", src);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 3u);
}

TEST(LintScanner, PatternsInCommentsDoNotTrip) {
    const std::string src =
        "#pragma once\n"
        "namespace htd {\n"
        "// forbidden in a comment: std::mt19937 gen; std::cout << x;\n"
        "}\n";
    EXPECT_TRUE(htd::lint::lint_source("src/core/x.hpp", src).empty());
}

// Regression: the v1 character-state scanner treated `u8R"(`, `LR"(` etc.
// as ordinary quoted strings (the prefix made the R invisible), so a `)"`
// *inside* the raw delimiter ended the literal early and the tail of the
// string leaked into the scanned text. The lexer knows the full literal
// grammar.
TEST(LintScanner, EncodingPrefixedRawStringsBlankCorrectly) {
    const std::string src =
        "const char* a = u8R\"(std::random_device \" not code)\";\n"
        "const char* b = LR\"sep(std::cout << \"x\")sep\";\n"
        "void f() { std::random_device rd; (void)rd; }\n";
    // In src/ the leaked `std::cout` would also trip stdio-in-library:
    // only the real line-3 use survives.
    const std::vector<Finding> findings =
        htd::lint::lint_source("src/ml/x.cpp", src);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "rng-seed");
    EXPECT_EQ(findings[0].line, 3u);
}

// --- individual rules -------------------------------------------------------

TEST(LintRules, RngSeedTripsOnRandomDeviceAndDefaultEngines) {
    const std::string src =
        "#include <random>\n"
        "void f() {\n"
        "    std::random_device rd;\n"
        "    std::mt19937 gen;\n"
        "    std::mt19937_64 seeded(42);\n"  // fine: explicit seed
        "}\n";
    const std::vector<Finding> findings =
        htd::lint::lint_source("bench/fixture.cpp", src);
    Report diag;
    diag.findings = findings;
    ASSERT_EQ(findings.size(), 2u) << dump_report(diag);
    EXPECT_EQ(findings[0].rule, "rng-seed");
    EXPECT_EQ(findings[0].line, 3u);
    EXPECT_EQ(findings[1].rule, "rng-seed");
    EXPECT_EQ(findings[1].line, 4u);
}

TEST(LintRules, StdRandomInLibraryScopesToSrc) {
    const std::string src =
        "#include <random>\n"
        "void f(std::mt19937& gen) {\n"
        "    std::normal_distribution<double> d(0.0, 1.0);\n"
        "    (void)d(gen);\n"
        "}\n";
    // In src/ both the engine reference and the distribution are findings.
    EXPECT_TRUE(has_rule(htd::lint::lint_source("src/ml/x.cpp", src),
                         "std-random-in-library"));
    // Outside src/ (tests, bench) raw <random> is allowed when seeded.
    EXPECT_FALSE(has_rule(htd::lint::lint_source("tests/x.cpp", src),
                          "std-random-in-library"));
    // src/rng/ implements the abstraction and is exempt.
    EXPECT_FALSE(has_rule(htd::lint::lint_source("src/rng/x.cpp", src),
                          "std-random-in-library"));
}

TEST(LintRules, RawNanCheckExemptsIngest) {
    const std::string src =
        "#include <cmath>\n"
        "bool f(double v) { return std::isfinite(v) && !std::isnan(v); }\n";
    const std::vector<Finding> in_lib =
        htd::lint::lint_source("src/stats/x.cpp", src);
    EXPECT_EQ(rules_of(in_lib),
              (std::vector<std::string>{"raw-nan-check", "raw-nan-check"}));
    EXPECT_TRUE(htd::lint::lint_source("src/pipeline/ingest.cpp", src).empty());
    EXPECT_TRUE(htd::lint::lint_source("tools/x.cpp", src).empty());
}

TEST(LintRules, StdioInLibraryExemptsObs) {
    const std::string src =
        "#include <cstdio>\n"
        "#include <iostream>\n"
        "void f() {\n"
        "    std::cout << 1;\n"
        "    std::fprintf(stderr, \"x\");\n"
        "    char buf[8];\n"
        "    std::snprintf(buf, sizeof buf, \"y\");\n"  // not console output
        "}\n";
    const std::vector<Finding> findings =
        htd::lint::lint_source("src/ml/x.cpp", src);
    EXPECT_EQ(rules_of(findings),
              (std::vector<std::string>{"stdio-in-library", "stdio-in-library"}));
    EXPECT_TRUE(htd::lint::lint_source("src/obs/x.cpp", src).empty());
    EXPECT_TRUE(htd::lint::lint_source("tools/x.cpp", src).empty());
}

TEST(LintRules, HeaderHygieneRequiresPragmaOnceAndNamespace) {
    const std::string bad =
        "#ifndef X\n#define X\nnamespace other {}\n#endif\n";
    const std::vector<Finding> findings =
        htd::lint::lint_source("src/core/x.hpp", bad);
    EXPECT_EQ(rules_of(findings),
              (std::vector<std::string>{"header-hygiene", "header-hygiene"}));

    const std::string good =
        "#pragma once\n/// doc\nnamespace htd::core {}\n";
    EXPECT_TRUE(htd::lint::lint_source("src/core/x.hpp", good).empty());
    // Sources and non-src headers are out of scope.
    EXPECT_TRUE(htd::lint::lint_source("tools/htd_lint/lint.hpp", bad).empty());
}

TEST(LintRules, StreamUncheckedWantsAnErrorCheckNearby) {
    const std::string unchecked =
        "#include <fstream>\n"
        "void f() {\n"
        "    std::ifstream in(\"x.csv\");\n"
        "    int y = 0;\n"
        "    (void)y;\n"
        "}\n";
    EXPECT_TRUE(has_rule(htd::lint::lint_source("src/io/x.cpp", unchecked),
                         "stream-unchecked"));

    const std::string checked =
        "#include <fstream>\n"
        "void f() {\n"
        "    std::ifstream in(\"x.csv\");\n"
        "    if (!in) return;\n"
        "}\n";
    EXPECT_TRUE(htd::lint::lint_source("src/io/x.cpp", checked).empty());

    const std::string is_open =
        "#include <fstream>\n"
        "void f() {\n"
        "    std::ofstream out(\"x.csv\");\n"
        "    if (!out.is_open()) return;\n"
        "}\n";
    EXPECT_TRUE(htd::lint::lint_source("src/io/x.cpp", is_open).empty());
}

// --- line-rule edge behaviour -----------------------------------------------
//
// The six line rules match token patterns within one physical line. These
// fixtures pin their per-line multiplicity and boundary cases exactly.

TEST(LintLineRules, RngSeedReportsRandomDeviceAndDefaultEngineOnOneLine) {
    const std::string src =
        "void f() {\n"
        "    std::random_device rd; std::mt19937 g; std::mt19937 h;\n"
        "}\n";
    const std::vector<Finding> findings =
        htd::lint::lint_source("bench/x.cpp", src);
    ASSERT_EQ(rules_of(findings),
              (std::vector<std::string>{"rng-seed", "rng-seed"}));
    EXPECT_EQ(findings[0].line, 2u);
    EXPECT_EQ(findings[1].line, 2u);
    EXPECT_NE(findings[0].message.find("default-constructed"), std::string::npos);
    EXPECT_NE(findings[1].message.find("random_device"), std::string::npos);
}

TEST(LintLineRules, RngSeedSeesSpacedNamesAndTemporaries) {
    const std::string src =
        "void f() {\n"
        "    std :: mt19937 g;\n"
        "    auto a = std::mt19937{};\n"
        "    auto b = std::mt19937();\n"
        "    auto c = std::mt19937_64{ };\n"
        "    std::mt19937 d(7);\n"  // seeded: fine
        "    std::mt19937 e{7};\n"  // seeded: fine
        "}\n";
    const std::vector<Finding> findings =
        htd::lint::lint_source("bench/x.cpp", src);
    ASSERT_EQ(findings.size(), 4u);
    for (std::size_t i = 0; i < findings.size(); ++i) {
        EXPECT_EQ(findings[i].rule, "rng-seed");
        EXPECT_EQ(findings[i].line, i + 2);
    }
}

TEST(LintLineRules, StdRandomInLibraryReportsOncePerLine) {
    const std::string src =
        "void f() {\n"
        "    std::normal_distribution<double> d; std::uniform_int_distribution<int> u;\n"
        "}\n";
    const std::vector<Finding> findings =
        htd::lint::lint_source("src/ml/x.cpp", src);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "std-random-in-library");
    EXPECT_EQ(findings[0].line, 2u);
    // The message names the first offender on the line.
    EXPECT_NE(findings[0].message.find("std::normal_distribution"),
              std::string::npos);
}

TEST(LintLineRules, StdioFlagsUnqualifiedCallsButNotMemberCalls) {
    const std::string src =
        "void f(Logger& logger) {\n"
        "    printf(\"x\");\n"
        "    puts(\"y\");\n"
        "    logger.printf(\"z\");\n"
        "}\n";
    const std::vector<Finding> findings =
        htd::lint::lint_source("src/ml/x.cpp", src);
    ASSERT_EQ(rules_of(findings), (std::vector<std::string>{
                                      "stdio-in-library", "stdio-in-library"}));
    EXPECT_EQ(findings[0].line, 2u);
    EXPECT_EQ(findings[1].line, 3u);
}

TEST(LintLineRules, PatternsInsideDefinesAreStillScanned) {
    const std::string src =
        "#define SAY(x) printf(x)\n"
        "#define DEV std::random_device\n"
        "#define BAD(x) std::isnan(x)\n";
    const std::vector<Finding> findings =
        htd::lint::lint_source("src/ml/x.cpp", src);
    ASSERT_EQ(rules_of(findings),
              (std::vector<std::string>{"stdio-in-library", "rng-seed",
                                        "raw-nan-check"}));
    EXPECT_EQ(findings[0].line, 1u);
    EXPECT_EQ(findings[1].line, 2u);
    EXPECT_EQ(findings[2].line, 3u);
}

TEST(LintLineRules, StreamCheckSearchStartsPastTheDeclarator) {
    // A `!in` after the declarator on the declaration line counts as a
    // check; one before the declaration on the same line does not.
    const std::string after =
        "void f(bool flip) {\n"
        "    std::ifstream in(flip ? \"a\" : \"b\"); bool bad = !in;\n"
        "    (void)bad;\n"
        "}\n";
    EXPECT_TRUE(htd::lint::lint_source("src/io/x.cpp", after).empty());
    const std::string before =
        "void f(bool in0) {\n"
        "    bool bad = !in; std::ifstream in(\"a\");\n"
        "    (void)bad;\n"
        "}\n";
    const std::vector<Finding> findings =
        htd::lint::lint_source("src/io/x.cpp", before);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "stream-unchecked");
    EXPECT_EQ(findings[0].line, 2u);
}

TEST(LintLineRules, StreamCheckWindowIsTwelveLines) {
    // Declaration on line 2; the check sits `gap` lines below it.
    const auto with_gap = [](std::size_t gap) {
        std::string src = "void f() {\n    std::ifstream in(\"x\");\n";
        for (std::size_t i = 1; i < gap; ++i) src += "    step();\n";
        return src + "    if (!in) return;\n}\n";
    };
    EXPECT_TRUE(htd::lint::lint_source("src/io/x.cpp", with_gap(11)).empty());
    const std::vector<Finding> late =
        htd::lint::lint_source("src/io/x.cpp", with_gap(12));
    ASSERT_EQ(late.size(), 1u);
    EXPECT_EQ(late[0].rule, "stream-unchecked");
    EXPECT_EQ(late[0].line, 2u);

    for (const char* check : {"fail", "good", "bad"}) {
        const std::string src = std::string("void f() {\n") +
                                "    std::ofstream out(\"x\");\n" +
                                "    if (out." + check + "()) return;\n}\n";
        EXPECT_TRUE(htd::lint::lint_source("src/io/x.cpp", src).empty()) << check;
    }
}

TEST(LintLineRules, PragmaOnceMayFollowCommentsAndBlankLines) {
    const std::string src =
        "// leading comment\n"
        "\n"
        "/* block\n"
        "   comment */\n"
        "\n"
        "#pragma once\n"
        "namespace htd::core {}\n";
    EXPECT_TRUE(htd::lint::lint_source("src/core/x.hpp", src).empty());
}

// --- missing-nodiscard ------------------------------------------------------

TEST(LintRules, WorkCounterNameEnforcesShapeInSrc) {
    // A literal work_add name must be work.<stage>.<quantity>.
    const std::string good =
        "void f(htd::obs::Registry& r) {\n"
        "    r.work_add(\"work.kde.kernel_evals\", 1.0);\n"
        "}\n";
    EXPECT_TRUE(htd::lint::lint_source("src/stats/x.cpp", good).empty());

    for (const char* bad_name :
         {"kde.kernel_evals",        // missing work. prefix
          "work.KDE.kernel_evals",   // uppercase segment
          "work.kde",                // too few segments
          "work.kde.kernel.evals",   // too many segments
          "work.kde.kernel-evals"})  // dash not in [a-z0-9_]
    {
        const std::string src = std::string("void f(htd::obs::Registry& r) {\n") +
                                "    r.work_add(\"" + bad_name + "\", 1.0);\n}\n";
        EXPECT_TRUE(has_rule(htd::lint::lint_source("src/stats/x.cpp", src),
                             "work-counter-name"))
            << bad_name;
    }

    // Computed names cannot be checked statically and must not trip.
    const std::string computed =
        "void f(htd::obs::Registry& r, const std::string& n) {\n"
        "    r.work_add(n, 1.0);\n"
        "}\n";
    EXPECT_TRUE(htd::lint::lint_source("src/stats/x.cpp", computed).empty());

    // The rule scopes to src/: bench/test/tool code may use ad-hoc names.
    const std::string bad =
        "void f(htd::obs::Registry& r) { r.work_add(\"evals\", 1.0); }\n";
    EXPECT_FALSE(has_rule(htd::lint::lint_source("bench/x.cpp", bad),
                          "work-counter-name"));
    EXPECT_FALSE(has_rule(htd::lint::lint_source("tests/x.cpp", bad),
                          "work-counter-name"));
}

TEST(LintRules, ArtifactSchemaStringOnlyInDefiningHeader) {
    // A literal htd.boundary.* spelling forks the schema contract.
    const std::string fork =
        "bool ok(const std::string& s) {\n"
        "    return s == \"htd.boundary.v1\";\n"
        "}\n";
    EXPECT_TRUE(has_rule(htd::lint::lint_source("src/pipeline/report.cpp", fork),
                         "artifact-schema-version"));
    EXPECT_TRUE(has_rule(
        htd::lint::lint_source("tools/htd_score/main.cpp", fork),
        "artifact-schema-version"));

    // The defining header owns the literal; the linter spells it to find it.
    EXPECT_FALSE(has_rule(
        htd::lint::lint_source("src/pipeline/artifact.hpp", fork),
        "artifact-schema-version"));
    EXPECT_FALSE(has_rule(htd::lint::lint_source("tools/htd_lint/lint.cpp", fork),
                          "artifact-schema-version"));

    // Comments may mention the schema; only string literals are gated. Other
    // schema families (htd.bscores.*) are not this rule's business, and
    // bench/test code is out of scope entirely.
    const std::string comment =
        "// serialized as an htd.boundary.v1 envelope\n"
        "int x = 0;\n";
    EXPECT_TRUE(
        htd::lint::lint_source("src/pipeline/report.cpp", comment).empty());
    const std::string other_schema =
        "const char* s = \"htd.bscores.v1\";\n";
    EXPECT_FALSE(has_rule(
        htd::lint::lint_source("tools/htd_score/main.cpp", other_schema),
        "artifact-schema-version"));
    EXPECT_FALSE(has_rule(htd::lint::lint_source("tests/test_artifact.cpp", fork),
                          "artifact-schema-version"));
}

TEST(LintNodiscard, PublicValueReturnsInHeadersMustBeMarked) {
    const std::string src =
        "#pragma once\n"
        "namespace htd::stats {\n"
        "class Health {\n"
        "public:\n"
        "    int count() const;\n"                // finding
        "    [[nodiscard]] int size() const;\n"   // marked: fine
        "    void reset();\n"                     // void: fine
        "    int& slot(int i);\n"                 // reference: fine
        "    Health() = default;\n"               // constructor: fine
        "    ~Health() = default;\n"              // destructor: fine
        "private:\n"
        "    int helper() const;\n"               // private: fine
        "};\n"
        "int free_count();\n"                     // finding
        "}\n";
    const std::vector<Finding> findings =
        htd::lint::lint_source("src/stats/health.hpp", src);
    ASSERT_EQ(rules_of(findings), (std::vector<std::string>{
                                      "missing-nodiscard", "missing-nodiscard"}))
        << [&] {
               Report d;
               d.findings = findings;
               return dump_report(d);
           }();
    EXPECT_EQ(findings[0].line, 5u);
    EXPECT_NE(findings[0].message.find("'count'"), std::string::npos);
    EXPECT_EQ(findings[1].line, 14u);
}

TEST(LintNodiscard, SourcesAndOutOfLineDefinitionsAreExempt) {
    // .cpp files declare no public surface; out-of-line definitions carry
    // the attribute on the in-class declaration.
    const std::string cpp =
        "#include \"stats/health.hpp\"\n"
        "namespace htd::stats {\n"
        "int Health::count() const { return 1; }\n"
        "static int local_helper() { return 2; }\n"
        "}\n";
    EXPECT_FALSE(has_rule(htd::lint::lint_source("src/stats/health.cpp", cpp),
                          "missing-nodiscard"));
}

// --- determinism passes (v4) ------------------------------------------------

TEST(LintDeterminism, GlobalMutableStateFlagsStaticsAndThreadLocals) {
    const std::string src =
        "void f() {\n"
        "    static int counter = 0;\n"
        "    thread_local double scratch = 0.0;\n"
        "    static const int limit = 4;\n"         // immutable: fine
        "    static constexpr double pi = 3.14;\n"  // immutable: fine
        "    (void)counter; (void)scratch; (void)limit; (void)pi;\n"
        "}\n"
        "static_assert(true, \"not a variable\");\n";
    const std::vector<Finding> findings =
        htd::lint::lint_source("src/core/x.cpp", src);
    ASSERT_EQ(rules_of(findings),
              (std::vector<std::string>{"global-mutable-state",
                                        "global-mutable-state"}));
    EXPECT_EQ(findings[0].line, 2u);
    EXPECT_NE(findings[0].message.find("'counter'"), std::string::npos);
    EXPECT_NE(findings[0].message.find("HTD_SHARED_STATE_OK"),
              std::string::npos);
    EXPECT_EQ(findings[1].line, 3u);
    EXPECT_NE(findings[1].message.find("'scratch'"), std::string::npos);
    // The rule gates src/ and tools/; fixtures and tests are exempt.
    EXPECT_TRUE(htd::lint::lint_source("tests/x.cpp", src).empty());
}

TEST(LintDeterminism, SharedStateAnnotationSuppressesAndIsRecorded) {
    const std::string annotated =
        "static int hits HTD_SHARED_STATE_OK(\n"
        "    \"metrics only; guarded by the registry mutex\") = 0;\n";
    const htd::lint::FileAnalysis fa =
        htd::lint::analyze_file("src/obs/x.cpp", annotated);
    EXPECT_TRUE(fa.findings.empty()) << [&] {
        Report d;
        d.findings = fa.findings;
        return dump_report(d);
    }();
    ASSERT_EQ(fa.annotations.size(), 1u);
    EXPECT_EQ(fa.annotations[0].symbol, "hits");
    EXPECT_EQ(fa.annotations[0].line, 1u);
    EXPECT_NE(fa.annotations[0].justification.find("registry mutex"),
              std::string::npos);

    // A blank justification is itself a finding: the annotation is the
    // audit record, not a mute button.
    const std::string blank = "static int hits HTD_SHARED_STATE_OK(\"\") = 0;\n";
    const std::vector<Finding> findings =
        htd::lint::lint_source("src/obs/x.cpp", blank);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "global-mutable-state");
    EXPECT_NE(findings[0].message.find("non-empty justification"),
              std::string::npos);
}

TEST(LintDeterminism, UnorderedIterationEscapeFlagsSerializedOrder) {
    const std::string streamed =
        "#include <unordered_map>\n"
        "#include <string>\n"
        "void dump(std::ostream& os) {\n"
        "    std::unordered_map<std::string, double> stats;\n"
        "    for (const auto& [k, v] : stats) {\n"
        "        os << k;\n"
        "    }\n"
        "}\n";
    const std::vector<Finding> findings =
        htd::lint::lint_source("src/obs/x.cpp", streamed);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "unordered-iteration-escape");
    EXPECT_EQ(findings[0].line, 5u);
    EXPECT_NE(findings[0].message.find("'stats'"), std::string::npos);
    EXPECT_NE(findings[0].message.find("declared line 4"), std::string::npos);

    // An escape through an order-preserving sink (Json::set, push_back...)
    // is the same bug as streaming.
    const std::string appended =
        "#include <unordered_set>\n"
        "#include <vector>\n"
        "void collect(std::vector<int>& out) {\n"
        "    std::unordered_set<int> seen;\n"
        "    for (const int v : seen) {\n"
        "        out.push_back(v);\n"
        "    }\n"
        "}\n";
    EXPECT_TRUE(has_rule(htd::lint::lint_source("src/stats/x.cpp", appended),
                         "unordered-iteration-escape"));

    // Copying into a sorted container first is exactly the prescribed fix.
    const std::string sorted_copy =
        "#include <map>\n"
        "#include <unordered_map>\n"
        "void dump(htd::io::Json& out) {\n"
        "    std::unordered_map<std::string, double> stats;\n"
        "    std::map<std::string, double> ordered(stats.begin(), stats.end());\n"
        "    for (const auto& [k, v] : ordered) {\n"
        "        out.set(k, v);\n"
        "    }\n"
        "}\n";
    EXPECT_TRUE(htd::lint::lint_source("src/obs/x.cpp", sorted_copy).empty());

    // Order-insensitive consumption (a commutative reduction) never
    // serializes the order and stays clean — single-statement body path.
    const std::string reduction =
        "#include <unordered_map>\n"
        "double total(const std::unordered_map<int, double>& m) {\n"
        "    double t = 0.0;\n"
        "    for (const auto& [k, v] : m) t = t + v;\n"
        "    return t;\n"
        "}\n";
    EXPECT_TRUE(htd::lint::lint_source("src/stats/x.cpp", reduction).empty());
}

TEST(LintDeterminism, RngDisciplineFlagsWallClockSeeds) {
    // tools/ scope avoids overlapping std-random-in-library findings.
    const std::string time_seeded =
        "#include <ctime>\n"
        "#include <random>\n"
        "void f() {\n"
        "    std::mt19937 gen(static_cast<unsigned>(std::time(nullptr)));\n"
        "    (void)gen;\n"
        "}\n";
    const std::vector<Finding> findings =
        htd::lint::lint_source("tools/htd_score/x.cpp", time_seeded);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "rng-discipline");
    EXPECT_EQ(findings[0].line, 4u);
    EXPECT_NE(findings[0].message.find("'gen'"), std::string::npos);
    EXPECT_NE(findings[0].message.find("wall clock"), std::string::npos);

    // Seeding from the experiment seed is the discipline.
    const std::string good =
        "#include <random>\n"
        "void f(unsigned seed) {\n"
        "    std::mt19937 gen(seed);\n"
        "    (void)gen;\n"
        "}\n";
    EXPECT_TRUE(htd::lint::lint_source("tools/htd_score/x.cpp", good).empty());
}

// --- tree walk + report -----------------------------------------------------

class LintTreeTest : public ::testing::Test {
protected:
    void SetUp() override {
        root_ = fs::temp_directory_path() /
                ("htd_lint_test_" + std::to_string(::getpid()));
        fs::remove_all(root_);
        write("src/core/bad.cpp",
              "#include <random>\n"
              "void f() { std::random_device rd; (void)rd; }\n");
        write("src/core/good.hpp",
              "#pragma once\nnamespace htd::core { void g(); }\n");
    }
    void TearDown() override { fs::remove_all(root_); }

    void write(const std::string& rel, const std::string& contents) {
        const fs::path p = root_ / rel;
        fs::create_directories(p.parent_path());
        std::ofstream out(p);
        ASSERT_TRUE(out.is_open()) << rel;
        out << contents;
    }

    [[nodiscard]] Report lint(const Options& options) const {
        return htd::lint::lint_paths({(root_ / "src").string()}, options);
    }

    fs::path root_;
};

TEST_F(LintTreeTest, WalksTreeAndCountsFiles) {
    const Report report = lint({});
    EXPECT_EQ(report.files_checked, 2u);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "rng-seed");
    EXPECT_EQ(report.findings[0].line, 2u);
    EXPECT_FALSE(report.clean());
}

TEST_F(LintTreeTest, AllowlistSuppressesAndFlagsStaleEntries) {
    Options options;
    options.allow = {
        {"rng-seed", "src/core/bad.cpp", "fixture"},   // suppresses the finding
        {"rng-seed", "src/core/other.cpp", "stale"}    // stale: matches nothing
    };
    const Report report = lint(options);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.suppressed, 1u);
    ASSERT_EQ(report.unused_allow.size(), 1u);
    EXPECT_EQ(report.unused_allow[0].path_suffix, "src/core/other.cpp");
    ASSERT_EQ(report.allow_usage.size(), 1u);
    EXPECT_EQ(report.allow_usage[0].entry.path_suffix, "src/core/bad.cpp");
    EXPECT_EQ(report.allow_usage[0].hits, 1u);
}

TEST_F(LintTreeTest, ThrowsOnMissingPath) {
    EXPECT_THROW((void)htd::lint::lint_paths({(root_ / "nope").string()}, {}),
                 std::runtime_error);
}

TEST_F(LintTreeTest, JsonReportSchema) {
    Options options;
    options.allow = {{"rng-seed", "src/core/bad.cpp", "seeded fixture"}};
    const Report report = lint(options);
    const Json json = htd::lint::report_json(report);
    EXPECT_EQ(json.at("schema").str(), "htd_lint.v4");
    EXPECT_EQ(json.at("files_checked").number(), 2.0);
    EXPECT_EQ(json.at("suppressed").number(), 1.0);
    EXPECT_EQ(json.at("findings").size(), 0u);
    // v4 dropped the wall-time and cache fields: the report is a pure
    // function of the tree and the configuration.
    EXPECT_FALSE(json.contains("passes"));
    EXPECT_FALSE(json.contains("gate"));
    EXPECT_FALSE(json.contains("files_cached"));

    // The audited shared-state sites; this fixture has none.
    EXPECT_EQ(json.at("annotations").size(), 0u);

    // Surviving allowlist entries carry their justification for audits.
    const Json& allow = json.at("allowlist");
    ASSERT_EQ(allow.size(), 1u);
    EXPECT_EQ(allow.at(0).at("rule").str(), "rng-seed");
    EXPECT_EQ(allow.at(0).at("justification").str(), "seeded fixture");
    EXPECT_EQ(allow.at(0).at("findings_suppressed").number(), 1.0);
    EXPECT_EQ(json.at("unused_allowlist_entries").size(), 0u);

    // The JSON mode must round-trip through the strict parser.
    const Json reparsed = Json::parse(json.dump(2));
    EXPECT_EQ(reparsed.at("schema").str(), "htd_lint.v4");
}

TEST(LintReportText, RendersFileLineRuleAndSummary) {
    Report report;
    report.findings.push_back({"src/x.cpp", 7, "rng-seed", "message"});
    report.files_checked = 3;
    report.suppressed = 2;
    const std::string text = htd::lint::report_text(report);
    EXPECT_NE(text.find("src/x.cpp:7: [rng-seed] message"), std::string::npos);
    EXPECT_NE(text.find("htd_lint: 3 files, 1 finding(s), 2 suppressed\n"),
              std::string::npos);
}

// --- include-graph layering -------------------------------------------------

class LintLayeringTest : public LintTreeTest {
protected:
    void SetUp() override {
        root_ = fs::temp_directory_path() /
                ("htd_lint_layer_test_" + std::to_string(::getpid()));
        fs::remove_all(root_);
    }

    [[nodiscard]] Report lint_with_layers(const std::string& layers) const {
        Options options;
        options.layers = htd::lint::parse_layers(layers);
        return htd::lint::lint_paths({(root_ / "src").string()}, options);
    }
};

TEST_F(LintLayeringTest, CleanDagPasses) {
    write("src/core/err.hpp", "#pragma once\nnamespace htd::core {}\n");
    write("src/io/csv.hpp",
          "#pragma once\n"
          "#include \"core/err.hpp\"\n"
          "namespace htd::io {}\n");
    const Report report = lint_with_layers("core\nio\n");
    EXPECT_TRUE(report.clean()) << dump_report(report);
}

TEST_F(LintLayeringTest, BackEdgeIsRejectedWithTheOffendingInclude) {
    write("src/core/err.hpp",
          "#pragma once\n"
          "#include \"io/csv.hpp\"\n"  // core (layer 0) reaching up into io
          "namespace htd::core {}\n");
    write("src/io/csv.hpp", "#pragma once\nnamespace htd::io {}\n");
    const Report report = lint_with_layers("core\nio\n");
    ASSERT_EQ(report.findings.size(), 1u) << dump_report(report);
    const Finding& f = report.findings[0];
    EXPECT_EQ(f.rule, "layering");
    EXPECT_EQ(f.line, 2u);
    EXPECT_NE(f.file.find("src/core/err.hpp"), std::string::npos);
    EXPECT_NE(f.message.find("layering back-edge"), std::string::npos);
    EXPECT_NE(f.message.find("'core' (layer 0)"), std::string::npos);
    EXPECT_NE(f.message.find("'io' (layer 1)"), std::string::npos);
    EXPECT_NE(f.message.find("\"io/csv.hpp\""), std::string::npos);
}

TEST_F(LintLayeringTest, PeerModulesMustStayIndependent) {
    write("src/crypto/aes.hpp",
          "#pragma once\n"
          "#include \"process/variation.hpp\"\n"
          "namespace htd::crypto {}\n");
    write("src/process/variation.hpp",
          "#pragma once\nnamespace htd::process {}\n");
    const Report report = lint_with_layers("crypto process\n");
    ASSERT_EQ(report.findings.size(), 1u) << dump_report(report);
    EXPECT_EQ(report.findings[0].rule, "layering");
    EXPECT_NE(report.findings[0].message.find("peer coupling"),
              std::string::npos);
}

TEST_F(LintLayeringTest, CycleIsReportedWithTheFullChain) {
    write("src/core/a.hpp",
          "#pragma once\n"
          "#include \"core/b.hpp\"\n"
          "namespace htd::core {}\n");
    write("src/core/b.hpp",
          "#pragma once\n"
          "#include \"core/a.hpp\"\n"
          "namespace htd::core {}\n");
    const Report report = lint_with_layers("core\n");
    ASSERT_EQ(report.findings.size(), 1u) << dump_report(report);
    const Finding& f = report.findings[0];
    EXPECT_EQ(f.rule, "include-cycle");
    EXPECT_NE(f.message.find("include cycle:"), std::string::npos);
    // The full chain names both files, and the head repeats to close it.
    EXPECT_NE(f.message.find("src/core/a.hpp"), std::string::npos);
    EXPECT_NE(f.message.find("src/core/b.hpp"), std::string::npos);
    EXPECT_NE(f.message.find("break one of these includes"), std::string::npos);
}

TEST_F(LintLayeringTest, ModuleMissingFromSpecIsFlagged) {
    write("src/rogue/x.hpp", "#pragma once\nnamespace htd::rogue {}\n");
    write("src/core/err.hpp", "#pragma once\nnamespace htd::core {}\n");
    const Report report = lint_with_layers("core\n");
    ASSERT_EQ(report.findings.size(), 1u) << dump_report(report);
    EXPECT_EQ(report.findings[0].rule, "layer-unmapped");
    EXPECT_EQ(report.findings[0].line, 1u);
    EXPECT_NE(report.findings[0].message.find("'rogue'"), std::string::npos);

    // An include *into* the unmapped module from a mapped one is flagged
    // at the include site.
    write("src/core/err.hpp",
          "#pragma once\n"
          "#include \"rogue/x.hpp\"\n"
          "namespace htd::core {}\n");
    const Report again = lint_with_layers("core\n");
    EXPECT_TRUE(has_rule(again.findings, "layer-unmapped"));
    bool include_site = false;
    for (const Finding& f : again.findings) {
        if (f.rule == "layer-unmapped" && f.line == 2u &&
            f.message.find("rogue/x.hpp") != std::string::npos) {
            include_site = true;
        }
    }
    EXPECT_TRUE(include_site) << dump_report(again);
}

TEST(LintLayerSpec, ParsesLayersAndRejectsDuplicates) {
    const LayerSpec spec = htd::lint::parse_layers(
        "# comment\n"
        "core\n"
        "crypto process trojan\n"
        "pipeline\n");
    ASSERT_EQ(spec.layers.size(), 3u);
    EXPECT_EQ(spec.rank.at("core"), 0);
    EXPECT_EQ(spec.rank.at("process"), 1);
    EXPECT_EQ(spec.rank.at("pipeline"), 2);
    EXPECT_THROW((void)htd::lint::parse_layers("core\ncore\n"),
                 std::runtime_error);
}

// --- the gate itself --------------------------------------------------------

// The committed tree lints clean — line rules, layering, cycles and
// [[nodiscard]] coverage — under the committed
// allowlist and layering spec, with no stale allowlist entries. This is
// exactly what `scripts/check.sh --analyze` enforces; failing here means
// a new invariant violation (or a rotted allowlist) is about to land.
TEST(LintGate, CommittedTreeIsCleanUnderCommittedAllowlist) {
    const fs::path repo(HTD_SOURCE_DIR);
    std::ifstream allow_in(repo / "tools" / "htd_lint" / "allowlist.txt");
    ASSERT_TRUE(allow_in.is_open());
    std::ostringstream allow_buf;
    allow_buf << allow_in.rdbuf();

    std::ifstream layers_in(repo / "tools" / "htd_lint" / "layers.txt");
    ASSERT_TRUE(layers_in.is_open());
    std::ostringstream layers_buf;
    layers_buf << layers_in.rdbuf();

    Options options;
    options.allow = htd::lint::parse_allowlist(allow_buf.str());
    options.layers = htd::lint::parse_layers(layers_buf.str());
    EXPECT_FALSE(options.allow.empty());
    EXPECT_GT(options.layers.layers.size(), 5u);

    std::vector<std::string> paths;
    for (const char* dir : {"src", "tools", "bench", "tests", "examples"}) {
        paths.push_back((repo / dir).string());
    }
    const Report report = htd::lint::lint_paths(paths, options);
    EXPECT_GT(report.files_checked, 100u);
    EXPECT_TRUE(report.clean()) << dump_report(report);
    EXPECT_TRUE(report.unused_allow.empty()) << dump_report(report);
    EXPECT_GT(report.suppressed, 0u);  // the allowlist is real, not decorative

    // The determinism gate is live on the committed tree: the obs layer's
    // audited singletons surface as annotations, every one justified.
    EXPECT_FALSE(report.annotations.empty());
    for (const auto& a : report.annotations) {
        EXPECT_FALSE(a.justification.empty()) << a.file << ":" << a.line;
        EXPECT_FALSE(a.symbol.empty()) << a.file << ":" << a.line;
    }
}

}  // namespace
