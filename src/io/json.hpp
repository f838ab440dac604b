#pragma once
/// \file json.hpp
/// Minimal JSON value model, serializer and parser for experiment reports
/// and observability artifacts. Strings are escaped per RFC 8259, doubles
/// are emitted with round-trip precision, and `Json::parse` accepts exactly
/// the RFC 8259 value grammar (used to read back RunReport / BENCH_*.json
/// files in tests and tooling).

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "linalg/matrix.hpp"

namespace htd::io {

/// Json::parse rejected its input. what() reads "Json::parse: <reason> at
/// offset N"; offset() is that N, the byte position where parsing stopped.
class JsonParseError : public std::invalid_argument {
public:
    JsonParseError(const std::string& message, std::size_t offset)
        : std::invalid_argument(message), offset_(offset) {}

    [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

private:
    std::size_t offset_;
};

/// A JSON value: null, bool, number, string, array or object.
class Json {
public:
    /// null
    Json() = default;

    // NOLINTBEGIN(google-explicit-constructor): implicit conversions are the
    // ergonomic point of a JSON value type.
    Json(bool b) : kind_(Kind::kBool), bool_(b) {}
    Json(double v) : kind_(Kind::kNumber), number_(v) {}
    Json(int v) : kind_(Kind::kNumber), number_(v) {}
    Json(std::size_t v) : kind_(Kind::kNumber), number_(static_cast<double>(v)) {}
    Json(const char* s) : kind_(Kind::kString), string_(s) {}
    Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
    // NOLINTEND(google-explicit-constructor)

    /// An empty array / object.
    [[nodiscard]] static Json array();
    [[nodiscard]] static Json object();

    /// Array of numbers from a vector; object-free convenience.
    [[nodiscard]] static Json from(const linalg::Vector& v);

    /// Nested arrays from a matrix (row-major).
    [[nodiscard]] static Json from(const linalg::Matrix& m);

    /// Parse one JSON document (with optional surrounding whitespace);
    /// throws JsonParseError on malformed input or trailing content.
    [[nodiscard]] static Json parse(std::string_view text);

    /// Read and parse a file; throws std::runtime_error on IO failure and
    /// JsonParseError on malformed content.
    [[nodiscard]] static Json parse_file(const std::string& path);

    /// Append to an array; throws std::logic_error when not an array.
    Json& push_back(Json value);

    /// Set an object member; throws std::logic_error when not an object.
    Json& set(const std::string& key, Json value);

    /// Number of elements (array) or members (object); throws otherwise.
    [[nodiscard]] std::size_t size() const;

    [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
    [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
    [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::kNumber; }
    [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::kString; }
    [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
    [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }

    /// Typed accessors; each throws std::logic_error on a kind mismatch.
    [[nodiscard]] bool boolean() const;
    [[nodiscard]] double number() const;
    [[nodiscard]] const std::string& str() const;

    /// Array element access; throws std::logic_error when not an array and
    /// std::out_of_range on a bad index.
    [[nodiscard]] const Json& at(std::size_t index) const;

    /// Object member access; throws std::logic_error when not an object and
    /// std::out_of_range on a missing key.
    [[nodiscard]] const Json& at(const std::string& key) const;

    /// True when an object has the member (false for non-objects).
    [[nodiscard]] bool contains(const std::string& key) const noexcept;

    /// Object members (sorted by key); throws when not an object.
    [[nodiscard]] const std::map<std::string, Json>& members() const;

    /// Array elements; throws when not an array.
    [[nodiscard]] const std::vector<Json>& elements() const;

    /// Serialize; `indent` > 0 pretty-prints with that many spaces per level.
    [[nodiscard]] std::string dump(int indent = 0) const;

    /// Serialize to a file; throws std::runtime_error on IO failure.
    void dump_to_file(const std::string& path, int indent = 2) const;

private:
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    void dump_impl(std::string& out, int indent, int depth) const;

    Kind kind_ = Kind::kNull;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::map<std::string, Json> object_;  // sorted keys: deterministic output
};

/// Escape a string per RFC 8259 (quotes included).
[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace htd::io
