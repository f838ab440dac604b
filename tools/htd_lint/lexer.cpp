#include "lexer.hpp"

#include <cctype>

namespace htd::lint {

namespace {

bool ident_start(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

/// True when the identifier spelled [begin, end) is a string/char literal
/// encoding prefix (u8, u, U, L) optionally followed by R for raw.
bool is_literal_prefix(const std::string& s, std::size_t begin, std::size_t end,
                       bool& raw) {
    std::string p = s.substr(begin, end - begin);
    raw = !p.empty() && p.back() == 'R';
    if (raw) p.pop_back();
    return p.empty() || p == "u8" || p == "u" || p == "U" || p == "L";
}

/// Two-character punctuators fused into one token. `::` and `->` matter to
/// the passes; the comparison/shift/compound set is fused so that a `<=`
/// never looks like a template-angle opener to the declaration scanner.
bool two_char_punct(char a, char b) {
    switch (a) {
        case ':': return b == ':';
        case '-': return b == '>' || b == '-' || b == '=';
        case '+': return b == '+' || b == '=';
        case '<': return b == '<' || b == '=';
        case '>': return b == '>' || b == '=';
        case '=': return b == '=';
        case '!': return b == '=';
        case '&': return b == '&' || b == '=';
        case '|': return b == '|' || b == '=';
        case '*': return b == '=';
        case '/': return b == '=';
        case '%': return b == '=';
        case '^': return b == '=';
        default: return false;
    }
}

}  // namespace

std::vector<Token> lex(const std::string& src) {
    std::vector<Token> tokens;
    std::size_t line = 1;
    bool line_start = true;
    bool in_directive = false;
    std::size_t i = 0;
    const std::size_t n = src.size();

    const auto push = [&](TokKind kind, std::size_t begin, std::size_t end,
                          std::size_t tok_line) {
        if (kind == TokKind::kPunct && line_start && end - begin == 1 &&
            src[begin] == '#') {
            in_directive = true;
        }
        Token t;
        t.kind = kind;
        t.text = src.substr(begin, end - begin);
        t.line = tok_line;
        t.at_line_start = line_start;
        t.in_directive = in_directive;
        tokens.push_back(std::move(t));
        line_start = false;
    };

    // Cooked string/char literal opening at src[quote_at] (an encoding
    // prefix starts at `begin`). A backslash-newline continues it onto the
    // next physical line, which the line count follows.
    const auto cooked_literal = [&](std::size_t begin, std::size_t quote_at) {
        const char quote = src[quote_at];
        const std::size_t tok_line = line;
        std::size_t k = quote_at + 1;
        while (k < n && src[k] != quote && src[k] != '\n') {
            if (src[k] == '\\' && k + 1 < n) {
                if (src[k + 1] == '\n') ++line;
                ++k;
            }
            ++k;
        }
        if (k < n && src[k] == quote) ++k;
        push(quote == '"' ? TokKind::kString : TokKind::kChar, begin, k, tok_line);
        i = k;
    };

    while (i < n) {
        const char c = src[i];
        const char next = i + 1 < n ? src[i + 1] : '\0';

        if (c == '\n') {
            ++line;
            line_start = true;
            in_directive = false;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c)) != 0) {
            ++i;
            continue;
        }
        // Line continuation: glue, but keep the physical line count right.
        if (c == '\\' && next == '\n') {
            ++line;
            i += 2;
            continue;
        }
        if (c == '/' && next == '/') {
            while (i < n && src[i] != '\n') ++i;
            continue;
        }
        if (c == '/' && next == '*') {
            i += 2;
            while (i < n && !(src[i] == '*' && i + 1 < n && src[i + 1] == '/')) {
                if (src[i] == '\n') ++line;
                ++i;
            }
            i = i + 2 <= n ? i + 2 : n;
            continue;
        }

        // Identifier — or a literal with an encoding prefix (u8R"(...)",
        // L"...", u'\x41'), which must be lexed as one literal token.
        if (ident_start(c)) {
            std::size_t j = i;
            while (j < n && ident_char(src[j])) ++j;
            bool raw = false;
            if (j < n && (src[j] == '"' || src[j] == '\'') &&
                is_literal_prefix(src, i, j, raw)) {
                const char quote = src[j];
                if (quote == '"' && raw) {
                    // Raw string: R"delim( ... )delim"
                    const std::size_t begin = i;
                    const std::size_t tok_line = line;
                    std::size_t k = j + 1;
                    std::string delim;
                    while (k < n && src[k] != '(' && src[k] != '\n') delim += src[k++];
                    const std::string terminator = ")" + delim + "\"";
                    std::size_t end = src.find(terminator, k);
                    if (end == std::string::npos) {
                        end = n;
                    } else {
                        end += terminator.size();
                    }
                    push(TokKind::kString, begin, end, tok_line);
                    for (std::size_t p = begin; p < end; ++p) {
                        if (src[p] == '\n') ++line;
                    }
                    i = end;
                    continue;
                }
                cooked_literal(i, j);  // keeps the prefix in the token
                continue;
            }
            push(TokKind::kIdent, i, j, line);
            i = j;
            continue;
        }

        // pp-number: digits, or '.' followed by a digit.
        if (digit(c) || (c == '.' && digit(next))) {
            std::size_t j = i + 1;
            while (j < n) {
                const char d = src[j];
                if (ident_char(d) || d == '.') {
                    ++j;
                } else if (d == '\'' && j + 1 < n && ident_char(src[j + 1])) {
                    j += 2;  // digit separator
                } else if ((d == '+' || d == '-') &&
                           (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                            src[j - 1] == 'p' || src[j - 1] == 'P')) {
                    ++j;  // exponent sign
                } else {
                    break;
                }
            }
            push(TokKind::kNumber, i, j, line);
            i = j;
            continue;
        }

        if (c == '"' || c == '\'') {
            cooked_literal(i, i);
            continue;
        }

        // Punctuation.
        if (c == '.' && next == '.' && i + 2 < n && src[i + 2] == '.') {
            push(TokKind::kPunct, i, i + 3, line);
            i += 3;
            continue;
        }
        if (i + 1 < n && two_char_punct(c, next)) {
            push(TokKind::kPunct, i, i + 2, line);
            i += 2;
            continue;
        }
        push(TokKind::kPunct, i, i + 1, line);
        ++i;
    }
    return tokens;
}

}  // namespace htd::lint
