#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>

#include "internal.hpp"
#include "lexer.hpp"

namespace htd::lint {

namespace detail {

std::string normalize(std::string path) {
    std::replace(path.begin(), path.end(), '\\', '/');
    while (path.rfind("./", 0) == 0) path.erase(0, 2);
    return path;
}

bool path_in(const std::string& path, const std::string& dir) {
    return path.rfind(dir, 0) == 0 || path.find("/" + dir) != std::string::npos;
}

bool is_header(const std::string& path) {
    return path.size() > 4 && path.compare(path.size() - 4, 4, ".hpp") == 0;
}

std::string module_of(const std::string& normalized_path) {
    std::size_t pos = normalized_path.rfind("src/");
    if (pos != 0 && (pos == std::string::npos || normalized_path[pos - 1] != '/')) {
        return {};
    }
    pos += 4;
    const std::size_t slash = normalized_path.find('/', pos);
    if (slash == std::string::npos) return {};
    return normalized_path.substr(pos, slash - pos);
}

}  // namespace detail

namespace {

using detail::is_header;
using detail::normalize;
using detail::path_in;

// --- token helpers ----------------------------------------------------------

bool is_punct(const Token& t, const char* text) {
    return t.kind == TokKind::kPunct && t.text == text;
}

bool is_ident(const Token& t, const char* text) {
    return t.kind == TokKind::kIdent && t.text == text;
}

/// Macro-shaped identifier (HTD_SHARED_STATE_OK, NOLINT, ...): upper-case
/// letters, digits and underscores with at least one letter.
bool all_caps(const std::string& s) {
    bool alpha = false;
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (std::islower(u) != 0) return false;
        if (std::isupper(u) != 0) alpha = true;
        if (std::isalnum(u) == 0 && c != '_') return false;
    }
    return alpha;
}

bool is_decl_specifier(const std::string& s) {
    return s == "static" || s == "inline" || s == "constexpr" ||
           s == "consteval" || s == "constinit" || s == "explicit" ||
           s == "virtual" || s == "extern" || s == "mutable" ||
           s == "thread_local" || s == "register";
}

bool is_std_engine(const std::string& s) {
    return s == "mt19937" || s == "mt19937_64" || s == "minstd_rand" ||
           s == "minstd_rand0" || s == "default_random_engine" ||
           s == "ranlux24" || s == "ranlux48" || s == "ranlux24_base" ||
           s == "ranlux48_base" || s == "knuth_b";
}

/// Standard engines plus the project's htd::rng::Rng.
bool is_engine_type(const std::string& s) { return is_std_engine(s) || s == "Rng"; }

bool is_std_distribution(const std::string& s) {
    return s == "normal_distribution" || s == "uniform_real_distribution" ||
           s == "uniform_int_distribution" || s == "bernoulli_distribution" ||
           s == "exponential_distribution" || s == "poisson_distribution" ||
           s == "gamma_distribution" || s == "cauchy_distribution" ||
           s == "lognormal_distribution";
}

/// When toks[i] starts `std :: <name>` on one line, the index of <name>;
/// otherwise 0.
std::size_t std_name_at(const std::vector<Token>& toks, std::size_t i) {
    if (i + 2 >= toks.size() || !is_ident(toks[i], "std") ||
        !is_punct(toks[i + 1], "::") || toks[i + 2].kind != TokKind::kIdent ||
        toks[i + 2].line != toks[i].line) {
        return 0;
    }
    return i + 2;
}

/// toks[k], toks[k + 1] spell `{}` or `()` on `line`.
bool empty_pair_at(const std::vector<Token>& toks, std::size_t k, std::size_t line) {
    return k + 1 < toks.size() && toks[k + 1].line == line &&
           ((is_punct(toks[k], "{") && is_punct(toks[k + 1], "}")) ||
            (is_punct(toks[k], "(") && is_punct(toks[k + 1], ")")));
}

// --- line rules (v1) --------------------------------------------------------
//
// Each rule matches a short token pattern lying on one physical line;
// comments and literals never match because they are not code tokens.
// Directive lines are scanned like code. Rules that report once per line
// remember the last line they flagged.

void check_rng_seed(const std::string& path, const std::vector<Token>& toks,
                    std::vector<Finding>& out) {
    std::size_t device_line = 0;
    std::size_t engine_line = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const std::size_t n = std_name_at(toks, i);
        if (n == 0) continue;
        const std::size_t line = toks[i].line;
        if (toks[n].text == "random_device") {
            if (line == device_line) continue;
            device_line = line;
            out.push_back({path, line, "rng-seed",
                           "std::random_device is a nondeterministic seed source; "
                           "derive seeds from the experiment seed instead"});
            continue;
        }
        if (!is_std_engine(toks[n].text) || line == engine_line) continue;
        // `E{}` / `E()` temporaries and `E name;` / `E name{}` / `E name()`
        // declarations are default-constructed (seeded from the fixed
        // default_seed — worse, a reader cannot tell it was intentional).
        const bool declared = n + 2 < toks.size() &&
                              toks[n + 1].kind == TokKind::kIdent &&
                              toks[n + 2].line == line &&
                              (is_punct(toks[n + 2], ";") ||
                               empty_pair_at(toks, n + 2, line));
        if (declared || empty_pair_at(toks, n + 1, line)) {
            engine_line = line;
            out.push_back({path, line, "rng-seed",
                           "default-constructed standard engine; construct with an "
                           "explicit seed so runs are reproducible"});
        }
    }
}

void check_std_random_in_library(const std::string& path,
                                 const std::vector<Token>& toks,
                                 std::vector<Finding>& out) {
    if (!path_in(path, "src/") || path_in(path, "src/rng/")) return;
    std::size_t last_line = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const std::size_t n = std_name_at(toks, i);
        if (n == 0 || toks[i].line == last_line) continue;
        const std::string& name = toks[n].text;
        if (!is_std_engine(name) && !is_std_distribution(name)) continue;
        last_line = toks[i].line;
        out.push_back({path, last_line, "std-random-in-library",
                       "library code uses std::" + name +
                           "; draw through htd::rng::Rng so one seed "
                           "reproduces the whole experiment"});
    }
}

void check_raw_nan(const std::string& path, const std::vector<Token>& toks,
                   std::vector<Finding>& out) {
    if (!path_in(path, "src/") || path_in(path, "src/pipeline/ingest")) return;
    // One finding per call, not per line: a screening helper often chains
    // several checks and every one needs a justification.
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const std::size_t n = std_name_at(toks, i);
        if (n == 0 || n + 1 >= toks.size() || !is_punct(toks[n + 1], "(") ||
            toks[n + 1].line != toks[i].line) {
            continue;
        }
        const std::string& name = toks[n].text;
        if (name != "isnan" && name != "isinf" && name != "isfinite") continue;
        out.push_back({path, toks[i].line, "raw-nan-check",
                       "std::" + name +
                           " outside core::MeasurementValidator; ingested "
                           "measurement screening lives in pipeline/ingest — "
                           "allowlist this site if the float is not a "
                           "measurement field"});
    }
}

void check_stdio_in_library(const std::string& path,
                            const std::vector<Token>& toks,
                            std::vector<Finding>& out) {
    if (!path_in(path, "src/") || path_in(path, "src/obs/")) return;
    std::size_t last_line = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokKind::kIdent || t.line == last_line) continue;
        const std::size_t n = std_name_at(toks, i);
        const bool stream = n != 0 && (toks[n].text == "cout" ||
                                       toks[n].text == "cerr" ||
                                       toks[n].text == "clog");
        // Both the qualified std::fprintf and the unqualified C spelling
        // trip; a member call (logger.printf) does not.
        const bool c_call =
            (t.text == "printf" || t.text == "fprintf" || t.text == "puts" ||
             t.text == "putchar") &&
            i + 1 < toks.size() && is_punct(toks[i + 1], "(") &&
            toks[i + 1].line == t.line &&
            !(i > 0 && is_punct(toks[i - 1], ".") && toks[i - 1].line == t.line);
        if (!stream && !c_call) continue;
        last_line = t.line;
        out.push_back({path, t.line, "stdio-in-library",
                       "library code writes to stdio; route output through "
                       "the htd::obs sinks (src/obs/ is the only exempt "
                       "layer)"});
    }
}

void check_header_hygiene(const std::string& path, const std::vector<Token>& toks,
                          std::vector<Finding>& out) {
    if (!path_in(path, "src/") || !is_header(path)) return;
    // The first code token (comments and literals are not code) must open
    // `#pragma once` on its line.
    std::size_t first = 0;
    while (first < toks.size() && (toks[first].kind == TokKind::kString ||
                                   toks[first].kind == TokKind::kChar)) {
        ++first;
    }
    const bool pragma_once = first + 2 < toks.size() &&
                             is_punct(toks[first], "#") &&
                             is_ident(toks[first + 1], "pragma") &&
                             is_ident(toks[first + 2], "once") &&
                             toks[first + 2].line == toks[first].line;
    if (!pragma_once) {
        out.push_back({path, first < toks.size() ? toks[first].line : 1,
                       "header-hygiene",
                       "first directive of a src/ header must be #pragma once"});
    }
    bool has_ns = false;
    for (std::size_t i = 0; i + 1 < toks.size() && !has_ns; ++i) {
        has_ns = is_ident(toks[i], "namespace") && is_ident(toks[i + 1], "htd") &&
                 toks[i + 1].line == toks[i].line;
    }
    if (!has_ns) {
        out.push_back({path, 1, "header-hygiene",
                       "src/ header declares nothing in the htd:: namespace"});
    }
}

/// toks[k] starts a check of stream `name` on one line: `!name` or
/// `name.is_open(` / `.fail(` / `.good(` / `.bad(`.
bool stream_check_at(const std::vector<Token>& toks, std::size_t k,
                     const std::string& name) {
    const std::size_t line = toks[k].line;
    if (is_punct(toks[k], "!")) {
        return k + 1 < toks.size() && toks[k + 1].kind == TokKind::kIdent &&
               toks[k + 1].text == name && toks[k + 1].line == line;
    }
    if (toks[k].kind != TokKind::kIdent || toks[k].text != name ||
        k + 3 >= toks.size() || toks[k + 3].line != line) {
        return false;
    }
    const std::string& member = toks[k + 2].text;
    return is_punct(toks[k + 1], ".") && toks[k + 2].kind == TokKind::kIdent &&
           (member == "is_open" || member == "fail" || member == "good" ||
            member == "bad") &&
           is_punct(toks[k + 3], "(");
}

void check_stream_unchecked(const std::string& path, const std::vector<Token>& toks,
                            std::vector<Finding>& out) {
    if (!path_in(path, "src/") && !path_in(path, "tools/")) return;
    constexpr std::size_t kWindow = 12;
    std::size_t decl_line = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        // `std::ifstream name(` / `std::ofstream name{`, the first per line.
        const std::size_t n = std_name_at(toks, i);
        if (n == 0 || toks[i].line == decl_line ||
            (toks[n].text != "ifstream" && toks[n].text != "ofstream") ||
            n + 2 >= toks.size() || toks[n + 1].kind != TokKind::kIdent ||
            toks[n + 2].line != toks[i].line ||
            (!is_punct(toks[n + 2], "(") && !is_punct(toks[n + 2], "{"))) {
            continue;
        }
        decl_line = toks[i].line;
        const std::string& name = toks[n + 1].text;
        // The search starts past the declarator and covers the rest of the
        // declaration line plus the next kWindow - 1 lines.
        bool ok = false;
        for (std::size_t k = n + 3;
             !ok && k < toks.size() && toks[k].line < decl_line + kWindow; ++k) {
            ok = stream_check_at(toks, k, name);
        }
        if (!ok) {
            out.push_back({path, decl_line, "stream-unchecked",
                           "std::fstream '" + name +
                               "' is never checked (is_open/fail/operator!) "
                               "within " +
                               std::to_string(kWindow) +
                               " lines of construction; unreadable files must "
                               "fail loudly"});
        }
    }
}

// --- include extraction -----------------------------------------------------

void collect_includes(const std::vector<Token>& toks, FileAnalysis& fa) {
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!is_punct(toks[i], "#") || !toks[i].at_line_start) continue;
        if (!is_ident(toks[i + 1], "include")) continue;
        const Token& arg = toks[i + 2];
        // Only quoted includes participate in the project graph; <...>
        // names the outside world.
        if (arg.kind != TokKind::kString || arg.text.size() < 2) continue;
        fa.includes.push_back(
            {arg.text.substr(1, arg.text.size() - 2), toks[i].line});
    }
}

// --- declaration scanner (missing-nodiscard) --------------------------------

/// Examine one declaration head (tokens since the last `;` / `{` / `}` at
/// namespace or class scope). Emits a missing-nodiscard finding for a
/// public value-returning function without the attribute.
void process_declaration(const std::string& path, const std::vector<Token>& toks,
                         const std::vector<std::size_t>& head, bool is_public,
                         std::vector<Finding>& findings) {
    if (head.empty()) return;
    bool has_nodiscard = false;
    std::vector<std::size_t> sig;  // head minus attributes / specifiers
    sig.reserve(head.size());
    for (std::size_t k = 0; k < head.size(); ++k) {
        const Token& t = toks[head[k]];
        if (is_punct(t, "[") && k + 1 < head.size() &&
            is_punct(toks[head[k + 1]], "[")) {
            // [[...]] attribute group.
            int depth = 0;
            for (; k < head.size(); ++k) {
                const Token& a = toks[head[k]];
                if (is_punct(a, "[")) ++depth;
                if (is_punct(a, "]") && --depth == 0) break;
                if (a.kind == TokKind::kIdent && a.text == "nodiscard") {
                    has_nodiscard = true;
                }
            }
            continue;
        }
        if (t.kind == TokKind::kIdent) {
            if (is_decl_specifier(t.text)) continue;
            if (t.text == "template") {
                // Skip the parameter list; the declaration that follows is
                // checked like any other.
                int angle = 0;
                for (++k; k < head.size(); ++k) {
                    const Token& a = toks[head[k]];
                    if (is_punct(a, "<")) ++angle;
                    if (is_punct(a, ">") && --angle == 0) break;
                    if (a.kind == TokKind::kPunct && a.text == ">>") {
                        angle -= 2;
                        if (angle <= 0) break;
                    }
                }
                continue;
            }
            if (t.text == "friend" || t.text == "typedef" || t.text == "using" ||
                t.text == "operator" || t.text == "static_assert" ||
                t.text == "class" || t.text == "struct" || t.text == "union" ||
                t.text == "enum" || t.text == "concept" || t.text == "requires") {
                return;
            }
        }
        sig.push_back(head[k]);
    }

    // First '(' outside template angles starts the parameter list. A
    // top-level '=' before it means this is an initialized variable.
    int angle = 0;
    std::size_t paren = sig.size();
    for (std::size_t k = 0; k < sig.size(); ++k) {
        const Token& t = toks[sig[k]];
        if (is_punct(t, "<") && k > 0 &&
            toks[sig[k - 1]].kind == TokKind::kIdent) {
            ++angle;
        } else if (is_punct(t, ">") && angle > 0) {
            --angle;
        } else if (t.kind == TokKind::kPunct && t.text == ">>" && angle > 0) {
            angle = angle >= 2 ? angle - 2 : 0;
        } else if (is_punct(t, "=") && angle == 0) {
            return;
        } else if (is_punct(t, "(") && angle == 0) {
            paren = k;
            break;
        }
    }
    if (paren == sig.size() || paren == 0) return;
    const Token& name_tok = toks[sig[paren - 1]];
    if (name_tok.kind != TokKind::kIdent) return;
    if (all_caps(name_tok.text)) return;  // macro annotation, not a declarator

    // Walk back over a qualified-name chain (Json::at) and reject
    // destructors. A qualified name is an out-of-line definition whose
    // in-class declaration carries the attribute.
    bool qualified = false;
    std::size_t chain = paren - 1;
    while (chain >= 2 && toks[sig[chain - 1]].kind == TokKind::kPunct &&
           toks[sig[chain - 1]].text == "::" &&
           toks[sig[chain - 2]].kind == TokKind::kIdent) {
        qualified = true;
        chain -= 2;
    }
    if (chain > 0 && is_punct(toks[sig[chain - 1]], "~")) return;
    if (chain == 0) return;  // constructor (or a bare macro-style call)

    // `= default` / `= delete` after the parameter list: nothing to mark.
    int pd = 0;
    std::size_t close = sig.size();
    for (std::size_t k = paren; k < sig.size(); ++k) {
        if (is_punct(toks[sig[k]], "(")) ++pd;
        if (is_punct(toks[sig[k]], ")") && --pd == 0) {
            close = k;
            break;
        }
    }
    for (std::size_t k = close + 1; k + 1 < sig.size() + 1 && k < sig.size(); ++k) {
        if (is_punct(toks[sig[k]], "=") && k + 1 < sig.size() &&
            (is_ident(toks[sig[k + 1]], "delete") ||
             is_ident(toks[sig[k + 1]], "default"))) {
            return;
        }
    }

    // Return type = tokens before the name chain (trailing type after ->
    // for `auto f() -> T`).
    std::vector<const Token*> ret;
    for (std::size_t k = 0; k < chain; ++k) ret.push_back(&toks[sig[k]]);
    const bool leading_auto =
        ret.size() == 1 && ret[0]->kind == TokKind::kIdent && ret[0]->text == "auto";
    if (leading_auto && close != sig.size()) {
        for (std::size_t k = close + 1; k < sig.size(); ++k) {
            if (toks[sig[k]].kind == TokKind::kPunct && toks[sig[k]].text == "->") {
                ret.clear();
                for (std::size_t m = k + 1; m < sig.size(); ++m) {
                    ret.push_back(&toks[sig[m]]);
                }
                break;
            }
        }
    }
    if (ret.empty()) return;

    for (const Token* t : ret) {
        // References are the chaining idiom (stream inserters, builder
        // setters): requiring [[nodiscard]] there would force spurious
        // casts at legitimate fluent call sites.
        if (t->kind == TokKind::kPunct && (t->text == "&" || t->text == "&&")) {
            return;
        }
    }
    std::vector<const Token*> type_only;
    for (const Token* t : ret) {
        if (t->kind == TokKind::kIdent && (t->text == "const" || t->text == "volatile")) {
            continue;
        }
        type_only.push_back(t);
    }
    if (type_only.size() == 1 && type_only[0]->kind == TokKind::kIdent &&
        type_only[0]->text == "void") {
        return;
    }
    if (has_nodiscard || qualified || !is_public) return;
    findings.push_back(
        {path, name_tok.line, "missing-nodiscard",
         "public function '" + name_tok.text +
             "' returns a value but is not [[nodiscard]]; every "
             "value-returning function in a src/ header must be marked so "
             "discarded results are compile errors"});
}

void scan_declarations(const std::string& path, const std::vector<Token>& toks,
                       std::vector<Finding>& findings) {
    struct Scope {
        enum Kind { kNamespace, kClass, kSkip } kind = kNamespace;
        bool is_public = true;
    };
    std::vector<Scope> scopes{{Scope::kNamespace, true}};
    std::vector<std::size_t> head;
    int paren = 0;

    const auto classify_and_push = [&](const std::vector<std::size_t>& h) {
        // Decide what the '{' opens from the declaration head before it.
        std::size_t class_kw = toks.size();
        bool saw_enum = false;
        bool saw_namespace = false;
        std::size_t first_paren = toks.size();
        for (const std::size_t idx : h) {
            const Token& t = toks[idx];
            if (is_ident(t, "namespace")) saw_namespace = true;
            if (is_ident(t, "enum")) saw_enum = true;
            if ((is_ident(t, "class") || is_ident(t, "struct") ||
                 is_ident(t, "union")) &&
                class_kw == toks.size()) {
                class_kw = idx;
            }
            if (is_punct(t, "(") && first_paren == toks.size()) first_paren = idx;
        }
        if (saw_namespace) {
            scopes.push_back({Scope::kNamespace, true});
            return;
        }
        if (saw_enum) {
            scopes.push_back({Scope::kSkip, false});
            return;
        }
        if (class_kw != toks.size() &&
            (first_paren == toks.size() || first_paren > class_kw)) {
            // class/struct head; annotation macros after the keyword are
            // fine, a '(' before it would make this a function instead.
            bool is_struct = is_ident(toks[class_kw], "struct") ||
                             is_ident(toks[class_kw], "union");
            scopes.push_back({Scope::kClass, is_struct});
            return;
        }
        // Function body / initializer / lambda: treat the head as a
        // declaration first, then skip the braces.
        process_declaration(path, toks, h, scopes.back().is_public, findings);
        scopes.push_back({Scope::kSkip, false});
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        // Preprocessor directives never participate in declarations — and a
        // macro body may hold unbalanced braces, so skip before tracking.
        if (t.in_directive) continue;
        if (scopes.back().kind == Scope::kSkip) {
            if (is_punct(t, "{")) scopes.push_back({Scope::kSkip, false});
            if (is_punct(t, "}") && scopes.size() > 1) scopes.pop_back();
            continue;
        }
        if (is_punct(t, "(")) {
            ++paren;
            head.push_back(i);
            continue;
        }
        if (is_punct(t, ")")) {
            if (paren > 0) --paren;
            head.push_back(i);
            continue;
        }
        if (paren > 0) {
            head.push_back(i);
            continue;
        }
        if (is_punct(t, ";")) {
            process_declaration(path, toks, head, scopes.back().is_public,
                                findings);
            head.clear();
            continue;
        }
        if (is_punct(t, ":") && scopes.back().kind == Scope::kClass &&
            head.size() == 1) {
            const std::string& w = toks[head[0]].text;
            if (w == "public" || w == "private" || w == "protected") {
                scopes.back().is_public = (w == "public");
                head.clear();
                continue;
            }
        }
        if (is_punct(t, "{")) {
            classify_and_push(head);
            head.clear();
            paren = 0;
            continue;
        }
        if (is_punct(t, "}")) {
            if (scopes.size() > 1) scopes.pop_back();
            head.clear();
            continue;
        }
        head.push_back(i);
    }
}

// --- work-counter-name (v3) -------------------------------------------------
//
// Work counters are the profiler's attribution currency (DESIGN.md §13):
// htd_profile ranks stages by `work.<stage>.<quantity>` deltas, so a
// misnamed counter silently falls out of every report. Enforce the shape
// at the recording site.

/// `work.<stage>.<quantity>`: each segment a lowercase letter followed by
/// [a-z0-9_], exactly two dots.
bool is_work_counter_name(const std::string& name) {
    if (name.rfind("work.", 0) != 0) return false;
    int segments = 1;
    bool segment_start = true;
    for (std::size_t i = 5; i < name.size(); ++i) {
        const char c = name[i];
        const bool lower = c >= 'a' && c <= 'z';
        if (c == '.' && !segment_start) {
            ++segments;
            segment_start = true;
        } else if (lower || (!segment_start && ((c >= '0' && c <= '9') || c == '_'))) {
            segment_start = false;
        } else {
            return false;
        }
    }
    return segments == 2 && !segment_start;
}

void check_work_counter_names(const std::string& path,
                              const std::vector<Token>& toks,
                              std::vector<Finding>& out) {
    if (!path_in(path, "src/")) return;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        const Token& callee = toks[i];
        if (callee.kind != TokKind::kIdent || callee.in_directive) continue;
        if (callee.text != "work_add" || !is_punct(toks[i + 1], "(")) continue;
        const Token& arg = toks[i + 2];
        // Only literal names are statically checkable; a computed name is
        // the caller's responsibility. Encoding-prefixed / raw literals do
        // not occur for metric names, so plain cooked strings suffice.
        if (arg.kind != TokKind::kString || arg.text.size() < 2 ||
            arg.text.front() != '"' || arg.text.back() != '"') {
            continue;
        }
        const std::string name = arg.text.substr(1, arg.text.size() - 2);
        if (!is_work_counter_name(name)) {
            out.push_back({path, arg.line, "work-counter-name",
                           "work counter '" + name +
                               "' must be named work.<stage>.<quantity> "
                               "(lowercase [a-z0-9_] segments, exactly two dots) "
                               "so htd_profile can attribute it to a stage"});
        }
    }
}

// --- artifact-schema-version (v4) -------------------------------------------
//
// The `htd.boundary.*` schema string is the artifact compatibility contract
// (DESIGN.md §14): load-time version negotiation compares against the single
// constant pair in src/pipeline/artifact.hpp. A second literal spelling
// anywhere in src/ or tools/ is a fork of that contract — it keeps compiling
// after a version bump and silently writes (or accepts) skewed envelopes.
// Comments and docs are free to mention the schema; only string literals in
// code are gated. tools/htd_lint/ is exempt: the rule and its fixtures must
// spell the prefix to detect it.

void check_artifact_schema_version(const std::string& path,
                                   const std::vector<Token>& toks,
                                   std::vector<Finding>& out) {
    if (!path_in(path, "src/") && !path_in(path, "tools/")) return;
    if (path_in(path, "tools/htd_lint/")) return;
    static const std::string owner = "src/pipeline/artifact.hpp";
    if (path == owner ||
        (path.size() > owner.size() &&
         path.compare(path.size() - owner.size() - 1, owner.size() + 1,
                      "/" + owner) == 0)) {
        return;
    }
    for (const Token& t : toks) {
        if (t.kind != TokKind::kString || t.in_directive) continue;
        if (t.text.find("htd.boundary.") == std::string::npos) continue;
        out.push_back(
            {path, t.line, "artifact-schema-version",
             "literal htd.boundary.* schema string; reference "
             "core::kBoundaryArtifactSchema / kBoundaryArtifactVersion from "
             "src/pipeline/artifact.hpp instead — a second spelling skews "
             "silently on the next version bump"});
    }
}

// --- determinism passes (v6) ------------------------------------------------
//
// The three passes below guard same-seed byte identity (DESIGN.md §16):
// they run over src/ and tools/ and reject the single-threaded ways a
// rerun drifts — unaudited mutable state that survives Registry::reset or
// a second run in the same process, hash-order leakage into serialized
// output, and engines seeded from a wall clock.

/// Skip toks[k] == "(" through its matching ")". Returns the index of the
/// closing paren (or toks.size() when unbalanced).
std::size_t skip_parens(const std::vector<Token>& toks, std::size_t k) {
    int depth = 0;
    for (; k < toks.size(); ++k) {
        if (is_punct(toks[k], "(")) ++depth;
        if (is_punct(toks[k], ")") && --depth == 0) return k;
    }
    return toks.size();
}

// --- global-mutable-state ---------------------------------------------------

void check_global_mutable_state(const std::string& path,
                                const std::vector<Token>& toks,
                                std::vector<Finding>& findings,
                                std::vector<FileAnalysis::Annotation>& annotations) {
    if (!path_in(path, "src/") && !path_in(path, "tools/")) return;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.in_directive || t.kind != TokKind::kIdent) continue;
        if (t.text != "static" && t.text != "thread_local") continue;
        // `static thread_local X` fires once, on the first keyword.
        if (i > 0 && toks[i - 1].kind == TokKind::kIdent &&
            !toks[i - 1].in_directive &&
            (toks[i - 1].text == "static" || toks[i - 1].text == "thread_local")) {
            continue;
        }

        bool immutable = false;
        bool not_a_variable = false;
        bool annotated = false;
        std::string symbol;
        std::size_t symbol_line = t.line;
        std::string justification;
        int angle = 0;
        std::size_t k = i + 1;
        for (; k < toks.size(); ++k) {
            const Token& u = toks[k];
            if (u.in_directive) {
                not_a_variable = true;  // declaration ran into a directive
                break;
            }
            if (u.kind == TokKind::kPunct) {
                if (u.text == "<" && k > 0 &&
                    toks[k - 1].kind == TokKind::kIdent) {
                    ++angle;
                } else if (u.text == ">" && angle > 0) {
                    --angle;
                } else if (u.text == ">>" && angle > 0) {
                    angle = angle >= 2 ? angle - 2 : 0;
                } else if (angle > 0) {
                    continue;  // template-argument innards
                } else if (u.text == ";" || u.text == "=" || u.text == "{") {
                    break;  // end of declarator
                } else if (u.text == "}") {
                    not_a_variable = true;  // ill-formed run, bail
                    break;
                } else if (u.text == "(") {
                    const Token& prev = toks[k - 1];
                    if (prev.kind == TokKind::kIdent &&
                        prev.text == "HTD_SHARED_STATE_OK") {
                        annotated = true;
                        if (k + 1 < toks.size() &&
                            toks[k + 1].kind == TokKind::kString &&
                            toks[k + 1].text.size() >= 2) {
                            justification = toks[k + 1].text.substr(
                                1, toks[k + 1].text.size() - 2);
                        }
                        k = skip_parens(toks, k);
                    } else if (prev.kind == TokKind::kIdent &&
                               all_caps(prev.text)) {
                        k = skip_parens(toks, k);  // other annotation macro
                    } else {
                        not_a_variable = true;  // function declaration
                        break;
                    }
                }
                continue;
            }
            if (u.kind != TokKind::kIdent || angle != 0) continue;
            if (u.text == "const" || u.text == "constexpr" ||
                u.text == "constinit" || u.text == "consteval") {
                immutable = true;
            } else if (u.text == "using" || u.text == "typedef" ||
                       u.text == "class" || u.text == "struct" ||
                       u.text == "union" || u.text == "enum" ||
                       u.text == "friend" || u.text == "operator" ||
                       u.text == "extern" || u.text == "static_assert") {
                not_a_variable = true;
                break;
            } else if (!is_decl_specifier(u.text) && !all_caps(u.text)) {
                symbol = u.text;
                symbol_line = u.line;
            }
        }

        if (not_a_variable || immutable || symbol.empty()) continue;
        if (annotated) {
            const bool blank = std::all_of(
                justification.begin(), justification.end(),
                [](unsigned char c) { return std::isspace(c) != 0; });
            if (justification.empty() || blank) {
                findings.push_back(
                    {path, symbol_line, "global-mutable-state",
                     "HTD_SHARED_STATE_OK on '" + symbol +
                         "' needs a non-empty justification string — the "
                         "annotation is the audit record for why this shared "
                         "mutable state is safe"});
            } else {
                annotations.push_back({symbol, symbol_line, justification});
            }
        } else {
            findings.push_back(
                {path, symbol_line, "global-mutable-state",
                 "mutable " + t.text + " state '" + symbol +
                     "' survives Registry::reset and carries over into the "
                     "next run in this process, so two same-seed runs can "
                     "differ; make it const/constexpr, pass it explicitly, "
                     "or annotate the declarator with "
                     "HTD_SHARED_STATE_OK(\"reason\") after an audit"});
        }
    }
}

// --- unordered-iteration-escape ---------------------------------------------

bool is_unordered_container(const std::string& s) {
    return s == "unordered_map" || s == "unordered_set" ||
           s == "unordered_multimap" || s == "unordered_multiset";
}

/// Member/free calls that move a value toward serialized output: io::Json
/// setters, container appends, and raw stream writes.
bool is_escape_call(const std::string& s) {
    return s == "set" || s == "push_back" || s == "emplace_back" ||
           s == "append" || s == "write";
}

void check_unordered_iteration_escape(const std::string& path,
                                      const std::vector<Token>& toks,
                                      std::vector<Finding>& out) {
    if (!path_in(path, "src/") && !path_in(path, "tools/")) return;
    // Pass 1: names declared with an unordered container type, with their
    // declaration lines. Member declarations in the same file count.
    std::map<std::string, std::size_t> unordered_vars;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.in_directive || t.kind != TokKind::kIdent ||
            !is_unordered_container(t.text)) {
            continue;
        }
        std::size_t k = i + 1;
        if (k >= toks.size() || !is_punct(toks[k], "<")) continue;
        int angle = 0;
        for (; k < toks.size(); ++k) {
            if (is_punct(toks[k], "<")) ++angle;
            if (is_punct(toks[k], ">") && --angle == 0) {
                ++k;
                break;
            }
            if (toks[k].kind == TokKind::kPunct && toks[k].text == ">>") {
                angle -= 2;
                if (angle <= 0) {
                    ++k;
                    break;
                }
            }
        }
        while (k < toks.size() && toks[k].kind == TokKind::kPunct &&
               (toks[k].text == "&" || toks[k].text == "*")) {
            ++k;
        }
        if (k < toks.size() && toks[k].kind == TokKind::kIdent &&
            !all_caps(toks[k].text)) {
            unordered_vars.emplace(toks[k].text, toks[k].line);
        }
    }
    if (unordered_vars.empty()) return;

    // Pass 2: range-for loops whose range expression names one of them.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].in_directive || !is_ident(toks[i], "for") ||
            !is_punct(toks[i + 1], "(")) {
            continue;
        }
        const std::size_t open = i + 1;
        const std::size_t close = skip_parens(toks, open);
        if (close == toks.size()) continue;
        // The range-for ':' sits at paren depth 1 (a `::` is one fused
        // token, so a plain ':' cannot be confused with it).
        std::size_t colon = toks.size();
        int depth = 0;
        for (std::size_t k = open; k <= close; ++k) {
            if (is_punct(toks[k], "(")) ++depth;
            if (is_punct(toks[k], ")")) --depth;
            if (depth == 1 && is_punct(toks[k], ":")) {
                colon = k;
                break;
            }
        }
        if (colon == toks.size()) continue;
        std::string container;
        std::size_t decl_line = 0;
        for (std::size_t k = colon + 1; k < close; ++k) {
            if (toks[k].kind != TokKind::kIdent) continue;
            const auto it = unordered_vars.find(toks[k].text);
            if (it != unordered_vars.end()) {
                container = it->first;
                decl_line = it->second;
                break;
            }
        }
        if (container.empty()) continue;

        // Body extent: brace-matched block or single statement.
        std::size_t body_begin = close + 1;
        std::size_t body_end = toks.size();
        if (body_begin < toks.size() && is_punct(toks[body_begin], "{")) {
            int bd = 0;
            for (std::size_t k = body_begin; k < toks.size(); ++k) {
                if (is_punct(toks[k], "{")) ++bd;
                if (is_punct(toks[k], "}") && --bd == 0) {
                    body_end = k + 1;
                    break;
                }
            }
        } else {
            for (std::size_t k = body_begin; k < toks.size(); ++k) {
                if (is_punct(toks[k], ";")) {
                    body_end = k + 1;
                    break;
                }
            }
        }
        for (std::size_t k = body_begin; k < body_end; ++k) {
            const Token& u = toks[k];
            if (u.in_directive) continue;
            if (u.kind == TokKind::kPunct && u.text == "<<") {
                out.push_back(
                    {path, toks[i].line, "unordered-iteration-escape",
                     "iteration over unordered container '" + container +
                         "' (declared line " + std::to_string(decl_line) +
                         ") streams its elements via operator<< at line " +
                         std::to_string(u.line) +
                         "; hash iteration order is nondeterministic — copy "
                         "into a sorted container before serializing"});
            } else if (u.kind == TokKind::kIdent && is_escape_call(u.text) &&
                       k > 0 && k + 1 < body_end &&
                       (is_punct(toks[k - 1], ".") ||
                        is_punct(toks[k - 1], "->")) &&
                       is_punct(toks[k + 1], "(")) {
                out.push_back(
                    {path, toks[i].line, "unordered-iteration-escape",
                     "iteration over unordered container '" + container +
                         "' (declared line " + std::to_string(decl_line) +
                         ") feeds '" + u.text + "(...)' at line " +
                         std::to_string(u.line) +
                         ", an order-preserving sink; hash iteration order "
                         "is nondeterministic — copy into a sorted container "
                         "before appending or serializing"});
            }
        }
    }
}

// --- rng-discipline ---------------------------------------------------------

/// Identifier that reads a wall clock: `time(...)`, `...::now(...)`, or
/// any `*clock` type's member chain.
bool is_clock_ident(const std::string& s) {
    return s == "time" || s == "now" || s == "clock" ||
           (s.size() > 6 && s.compare(s.size() - 6, 6, "_clock") == 0);
}

void check_rng_discipline(const std::string& path,
                          const std::vector<Token>& toks,
                          std::vector<Finding>& out) {
    if (!path_in(path, "src/") && !path_in(path, "tools/")) return;

    // Time-seeded constructions: an engine variable whose constructor
    // arguments read a clock. Same-seed reruns then never reproduce.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.in_directive || t.kind != TokKind::kIdent ||
            !is_engine_type(t.text)) {
            continue;
        }
        std::size_t k = i + 1;
        while (k < toks.size() && toks[k].kind == TokKind::kPunct &&
               (toks[k].text == "&" || toks[k].text == "*")) {
            ++k;
        }
        std::string var;
        if (k < toks.size() && toks[k].kind == TokKind::kIdent &&
            !all_caps(toks[k].text)) {
            var = toks[k].text;
            ++k;
        }
        if (k >= toks.size()) break;
        if (!is_punct(toks[k], "(") && !is_punct(toks[k], "{")) continue;
        const char* const open = toks[k].text == "(" ? "(" : "{";
        const char* const shut = toks[k].text == "(" ? ")" : "}";
        int depth = 0;
        for (std::size_t a = k; a < toks.size(); ++a) {
            if (is_punct(toks[a], open)) ++depth;
            if (is_punct(toks[a], shut) && --depth == 0) break;
            if (toks[a].kind == TokKind::kIdent && is_clock_ident(toks[a].text) &&
                a + 1 < toks.size() &&
                (is_punct(toks[a + 1], "(") || is_punct(toks[a + 1], "::"))) {
                out.push_back(
                    {path, t.line, "rng-discipline",
                     "engine '" + (var.empty() ? t.text : var) +
                         "' is seeded from a wall clock ('" + toks[a].text +
                         "'); same-seed runs can never reproduce — derive "
                         "the seed from the experiment seed instead"});
                break;
            }
        }
    }
}

}  // namespace

// --- public API -------------------------------------------------------------

const std::vector<std::string>& rule_ids() {
    static const std::vector<std::string> ids = {
        "rng-seed",         "std-random-in-library", "raw-nan-check",
        "stdio-in-library", "header-hygiene",        "stream-unchecked",
        "layering",         "include-cycle",         "layer-unmapped",
        "missing-nodiscard", "work-counter-name", "artifact-schema-version",
        "global-mutable-state", "unordered-iteration-escape",
        "rng-discipline"};
    return ids;
}

std::vector<AllowEntry> parse_allowlist(const std::string& text) {
    std::vector<AllowEntry> entries;
    std::istringstream in(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        std::string justification;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) {
            justification = line.substr(hash + 1);
            // Trim the comment into a usable justification string.
            const std::size_t b = justification.find_first_not_of(" \t");
            justification = b == std::string::npos ? "" : justification.substr(b);
            const std::size_t e = justification.find_last_not_of(" \t");
            if (e != std::string::npos) justification.erase(e + 1);
            line.erase(hash);
        }
        std::istringstream fields(line);
        std::string rule;
        std::string suffix;
        if (!(fields >> rule)) continue;  // blank / comment-only line
        if (!(fields >> suffix)) {
            throw std::runtime_error("allowlist line " + std::to_string(line_no) +
                                     ": expected '<rule> <path-suffix>'");
        }
        std::string extra;
        if (fields >> extra) {
            throw std::runtime_error("allowlist line " + std::to_string(line_no) +
                                     ": trailing tokens (use # for comments)");
        }
        if (rule != "*" &&
            std::find(rule_ids().begin(), rule_ids().end(), rule) == rule_ids().end()) {
            throw std::runtime_error("allowlist line " + std::to_string(line_no) +
                                     ": unknown rule '" + rule + "'");
        }
        entries.push_back({std::move(rule), detail::normalize(std::move(suffix)),
                           std::move(justification)});
    }
    return entries;
}

LayerSpec parse_layers(const std::string& text) {
    LayerSpec spec;
    std::istringstream in(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        std::istringstream fields(line);
        std::vector<std::string> modules;
        std::string m;
        while (fields >> m) modules.push_back(m);
        if (modules.empty()) continue;
        const int layer = static_cast<int>(spec.layers.size());
        for (const std::string& mod : modules) {
            if (!spec.rank.emplace(mod, layer).second) {
                throw std::runtime_error("layers line " + std::to_string(line_no) +
                                         ": module '" + mod +
                                         "' already assigned to a layer");
            }
        }
        spec.layers.push_back(std::move(modules));
    }
    return spec;
}

FileAnalysis analyze_file(const std::string& path, const std::string& contents) {
    const std::string norm = detail::normalize(path);
    FileAnalysis fa;
    const std::vector<Token> toks = lex(contents);

    check_rng_seed(norm, toks, fa.findings);
    check_std_random_in_library(norm, toks, fa.findings);
    check_raw_nan(norm, toks, fa.findings);
    check_stdio_in_library(norm, toks, fa.findings);
    check_header_hygiene(norm, toks, fa.findings);
    check_stream_unchecked(norm, toks, fa.findings);

    check_work_counter_names(norm, toks, fa.findings);
    check_artifact_schema_version(norm, toks, fa.findings);

    check_global_mutable_state(norm, toks, fa.findings, fa.annotations);
    check_unordered_iteration_escape(norm, toks, fa.findings);
    check_rng_discipline(norm, toks, fa.findings);

    collect_includes(toks, fa);
    if (path_in(norm, "src/") && is_header(norm)) {
        // The [[nodiscard]] contract covers the public surface: headers.
        scan_declarations(norm, toks, fa.findings);
    }

    std::sort(fa.findings.begin(), fa.findings.end(),
              [](const Finding& a, const Finding& b) {
                  return std::tie(a.line, a.rule, a.message) <
                         std::tie(b.line, b.rule, b.message);
              });
    std::sort(fa.annotations.begin(), fa.annotations.end(),
              [](const FileAnalysis::Annotation& a,
                 const FileAnalysis::Annotation& b) {
                  return std::tie(a.line, a.symbol) < std::tie(b.line, b.symbol);
              });
    return fa;
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& contents) {
    return analyze_file(path, contents).findings;
}

}  // namespace htd::lint
