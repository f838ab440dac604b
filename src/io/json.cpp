#include "io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace htd::io {

namespace {

/// Recursive-descent parser over the RFC 8259 value grammar.
class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json parse_document() {
        Json value = parse_value();
        skip_whitespace();
        if (pos_ != text_.size()) fail("trailing content after JSON value");
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw JsonParseError("Json::parse: " + what + " at offset " +
                                 std::to_string(pos_),
                             pos_);
    }

    void skip_whitespace() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(std::string_view literal) {
        if (text_.substr(pos_, literal.size()) != literal) return false;
        pos_ += literal.size();
        return true;
    }

    Json parse_value() {
        skip_whitespace();
        switch (peek()) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': return Json(parse_string());
            case 't':
                if (!consume_literal("true")) fail("invalid literal");
                return Json(true);
            case 'f':
                if (!consume_literal("false")) fail("invalid literal");
                return Json(false);
            case 'n':
                if (!consume_literal("null")) fail("invalid literal");
                return Json();
            default: return parse_number();
        }
    }

    Json parse_object() {
        expect('{');
        Json obj = Json::object();
        skip_whitespace();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skip_whitespace();
            std::string key = parse_string();
            skip_whitespace();
            expect(':');
            obj.set(key, parse_value());
            skip_whitespace();
            const char c = peek();
            ++pos_;
            if (c == '}') return obj;
            if (c != ',') fail("expected ',' or '}' in object");
        }
    }

    Json parse_array() {
        expect('[');
        Json arr = Json::array();
        skip_whitespace();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push_back(parse_value());
            skip_whitespace();
            const char c = peek();
            ++pos_;
            if (c == ']') return arr;
            if (c != ',') fail("expected ',' or ']' in array");
        }
    }

    /// Append a code point as UTF-8.
    static void append_utf8(std::string& out, unsigned cp) {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    unsigned parse_hex4() {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            value <<= 4;
            if (c >= '0' && c <= '9') {
                value |= static_cast<unsigned>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                value |= static_cast<unsigned>(c - 'a' + 10);
            } else if (c >= 'A' && c <= 'F') {
                value |= static_cast<unsigned>(c - 'A' + 10);
            } else {
                fail("invalid hex digit in \\u escape");
            }
        }
        return value;
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("truncated escape");
            const char e = text_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    unsigned cp = parse_hex4();
                    if (cp >= 0xD800 && cp <= 0xDBFF) {
                        // High surrogate: a low surrogate must follow.
                        if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                            text_[pos_ + 1] == 'u') {
                            pos_ += 2;
                            const unsigned lo = parse_hex4();
                            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
                            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                        } else {
                            fail("unpaired surrogate");
                        }
                    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                        fail("unpaired surrogate");
                    }
                    append_utf8(out, cp);
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    /// RFC 8259 number: -? (0 | [1-9] digit*) (. digit+)? ([eE] [+-]? digit+)?
    /// A leading '.' or '+', a leading zero or a bare '.'/'e' is rejected:
    /// strtod would accept them, and a flipped byte that turns "0.5" into
    /// " .5" would then re-serialize identically and pass a section CRC.
    Json parse_number() {
        const std::size_t start = pos_;
        const auto next_is = [&](char c) {
            return pos_ < text_.size() && text_[pos_] == c;
        };
        const auto digits = [&] {
            const std::size_t from = pos_;
            while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
                ++pos_;
            }
            return pos_ - from;
        };
        if (next_is('-')) ++pos_;
        const std::size_t int_start = pos_;
        const std::size_t int_digits = digits();
        if (int_digits == 0 || (int_digits > 1 && text_[int_start] == '0')) {
            fail("invalid number");
        }
        if (next_is('.')) {
            ++pos_;
            if (digits() == 0) fail("invalid number");
        }
        if (next_is('e') || next_is('E')) {
            ++pos_;
            if (next_is('+') || next_is('-')) ++pos_;
            if (digits() == 0) fail("invalid number");
        }
        const std::string token(text_.substr(start, pos_ - start));
        return Json(std::strtod(token.c_str(), nullptr));
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

std::string json_escape(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
    return out;
}

Json Json::array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
}

Json Json::object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
}

Json Json::from(const linalg::Vector& v) {
    Json j = array();
    for (std::size_t i = 0; i < v.size(); ++i) j.push_back(v[i]);
    return j;
}

Json Json::from(const linalg::Matrix& m) {
    Json j = array();
    for (std::size_t r = 0; r < m.rows(); ++r) j.push_back(from(m.row(r)));
    return j;
}

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

Json Json::parse_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("Json::parse_file: cannot open " + path);
    std::ostringstream content;
    content << in.rdbuf();
    return parse(content.str());
}

bool Json::boolean() const {
    if (kind_ != Kind::kBool) throw std::logic_error("Json::boolean: not a bool");
    return bool_;
}

double Json::number() const {
    if (kind_ != Kind::kNumber) throw std::logic_error("Json::number: not a number");
    return number_;
}

const std::string& Json::str() const {
    if (kind_ != Kind::kString) throw std::logic_error("Json::str: not a string");
    return string_;
}

const Json& Json::at(std::size_t index) const {
    if (kind_ != Kind::kArray) throw std::logic_error("Json::at: not an array");
    if (index >= array_.size()) throw std::out_of_range("Json::at: index out of range");
    return array_[index];
}

const Json& Json::at(const std::string& key) const {
    if (kind_ != Kind::kObject) throw std::logic_error("Json::at: not an object");
    const auto it = object_.find(key);
    if (it == object_.end()) throw std::out_of_range("Json::at: no member '" + key + "'");
    return it->second;
}

bool Json::contains(const std::string& key) const noexcept {
    return kind_ == Kind::kObject && object_.count(key) > 0;
}

const std::map<std::string, Json>& Json::members() const {
    if (kind_ != Kind::kObject) throw std::logic_error("Json::members: not an object");
    return object_;
}

const std::vector<Json>& Json::elements() const {
    if (kind_ != Kind::kArray) throw std::logic_error("Json::elements: not an array");
    return array_;
}

Json& Json::push_back(Json value) {
    if (kind_ != Kind::kArray) throw std::logic_error("Json::push_back: not an array");
    array_.push_back(std::move(value));
    return *this;
}

Json& Json::set(const std::string& key, Json value) {
    if (kind_ != Kind::kObject) throw std::logic_error("Json::set: not an object");
    object_[key] = std::move(value);
    return *this;
}

std::size_t Json::size() const {
    if (kind_ == Kind::kArray) return array_.size();
    if (kind_ == Kind::kObject) return object_.size();
    throw std::logic_error("Json::size: not a container");
}

void Json::dump_impl(std::string& out, int indent, int depth) const {
    const auto newline = [&](int d) {
        if (indent > 0) {
            out += '\n';
            out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(d),
                       ' ');
        }
    };
    switch (kind_) {
        case Kind::kNull: out += "null"; break;
        case Kind::kBool: out += bool_ ? "true" : "false"; break;
        case Kind::kNumber: {
            if (!std::isfinite(number_)) {
                out += "null";  // JSON has no NaN/inf
                break;
            }
            // Shortest round-trip form: the emitted digits parse back to
            // the identical bit pattern (denormals, negative zero, 1e308
            // magnitudes included), which the htd.boundary.v1 artifact
            // byte-identity contract relies on. %.17g over-prints digits
            // and is locale-sensitive.
            char buf[32];
            const std::to_chars_result res =
                std::to_chars(buf, buf + sizeof buf, number_);
            out.append(buf, res.ptr);
            break;
        }
        case Kind::kString: out += json_escape(string_); break;
        case Kind::kArray: {
            out += '[';
            bool first = true;
            for (const Json& v : array_) {
                if (!first) out += ',';
                first = false;
                newline(depth + 1);
                v.dump_impl(out, indent, depth + 1);
            }
            if (!array_.empty()) newline(depth);
            out += ']';
            break;
        }
        case Kind::kObject: {
            out += '{';
            bool first = true;
            for (const auto& [key, value] : object_) {
                if (!first) out += ',';
                first = false;
                newline(depth + 1);
                out += json_escape(key);
                out += indent > 0 ? ": " : ":";
                value.dump_impl(out, indent, depth + 1);
            }
            if (!object_.empty()) newline(depth);
            out += '}';
            break;
        }
    }
}

std::string Json::dump(int indent) const {
    std::string out;
    dump_impl(out, indent, 0);
    return out;
}

void Json::dump_to_file(const std::string& path, int indent) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("Json::dump_to_file: cannot open " + path);
    out << dump(indent) << '\n';
    if (!out) throw std::runtime_error("Json::dump_to_file: write failure " + path);
}

}  // namespace htd::io
