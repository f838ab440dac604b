#pragma once
/// \file lexer.hpp
/// A small C++ lexer for htd_lint. It produces the token stream every
/// pass walks, and it is the single place that knows the C++ literal
/// grammar — including encoding-prefixed raw strings (`u8R"(...)"`),
/// which the v1 character-state scanner mis-lexed by falling back to the
/// plain quote heuristic mid-delimiter.
///
/// The lexer is deliberately approximate where precision is not needed:
/// keywords are ordinary identifier tokens, preprocessor directives lex as
/// `#` followed by normal tokens, and only `::` / `->` are fused into
/// multi-character punctuators (plus the two-character operators needed to
/// keep angle-bracket tracking honest). Comments are consumed, not
/// emitted.

#include <cstddef>
#include <string>
#include <vector>

namespace htd::lint {

enum class TokKind {
    kIdent,    ///< identifier or keyword
    kNumber,   ///< pp-number (handles 0x1p-3, 1'000'000, 1.5e-7)
    kString,   ///< string literal, any encoding prefix, raw or cooked
    kChar,     ///< character literal, any encoding prefix
    kPunct,    ///< punctuation / operator (text holds the spelling)
};

struct Token {
    TokKind kind = TokKind::kPunct;
    std::string text;           ///< spelling; for literals the full source form
    std::size_t line = 0;       ///< 1-based line of the first character
    bool at_line_start = false; ///< first token on its line (comments ignored)
    /// True for tokens inside a preprocessor directive (from a
    /// line-leading `#` through the end of its logical line, including
    /// backslash continuations). Declaration/statement passes skip these;
    /// the include pass reads them.
    bool in_directive = false;
};

/// Tokenize a translation unit. Never throws on malformed input: an
/// unterminated literal simply runs to end-of-file, because lint must not
/// die on the code it is criticizing.
[[nodiscard]] std::vector<Token> lex(const std::string& source);

}  // namespace htd::lint
