/// Tests for the JSON writer and the experiment report serializer.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "pipeline/report.hpp"
#include "io/json.hpp"

namespace {

using htd::io::Json;
using htd::io::json_escape;
using htd::linalg::Matrix;
using htd::linalg::Vector;

TEST(JsonValue, ScalarsSerialize) {
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(3).dump(), "3");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");
    EXPECT_EQ(Json(std::size_t{42}).dump(), "42");
}

TEST(JsonValue, DoubleRoundTripPrecision) {
    // std::to_chars emits the shortest literal that parses back to the
    // same double.
    const double value = 0.1234567890123456;
    const std::string s = Json(value).dump();
    EXPECT_EQ(std::stod(s), value);
}

TEST(JsonValue, DoubleRoundTripIsValueExactForHardCases) {
    // write -> parse -> write must be value-exact (and therefore
    // byte-stable on the second write) for the doubles that defeat
    // fixed-precision printf formatting: denormals, the largest finite
    // magnitudes, negative zero, and shortest-representation cases. The
    // htd.boundary.v1 artifact's bitwise score parity relies on this.
    const double cases[] = {
        5e-324,                       // smallest positive denormal
        4.9406564584124654e-318,     // denormal with many digits
        2.2250738585072014e-308,     // smallest positive normal
        1.7976931348623157e308,      // largest finite
        -1.7976931348623157e308,     // most negative finite
        -0.0,                        // negative zero
        0.1,                         // classic shortest-form case
        1.0 / 3.0,
        123456789012345680.0,        // > 2^53, not exactly representable
        -6.02214076e23,
    };
    for (const double value : cases) {
        const std::string first = Json(value).dump();
        const Json parsed = Json::parse(first);
        ASSERT_TRUE(parsed.is_number()) << first;
        const double reparsed = parsed.number();
        // Bit-level comparison: catches -0.0 vs 0.0, which == cannot.
        EXPECT_EQ(std::signbit(reparsed), std::signbit(value)) << first;
        EXPECT_EQ(reparsed, value) << first;
        EXPECT_EQ(Json(reparsed).dump(), first);
    }
}

TEST(JsonValue, NonFiniteBecomesNull) {
    EXPECT_EQ(Json(std::nan("")).dump(), "null");
    EXPECT_EQ(Json(1.0 / 0.0).dump(), "null");
}

TEST(JsonValue, EscapingPerRfc) {
    EXPECT_EQ(json_escape("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(json_escape("back\\slash"), "\"back\\\\slash\"");
    EXPECT_EQ(json_escape("line\nbreak"), "\"line\\nbreak\"");
    EXPECT_EQ(json_escape(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(JsonValue, ArraysAndObjects) {
    Json arr = Json::array();
    arr.push_back(1).push_back("two").push_back(Json());
    EXPECT_EQ(arr.dump(), "[1,\"two\",null]");
    EXPECT_EQ(arr.size(), 3u);

    Json obj = Json::object();
    obj.set("b", 2).set("a", 1);
    // Keys are sorted for deterministic output.
    EXPECT_EQ(obj.dump(), "{\"a\":1,\"b\":2}");
    EXPECT_TRUE(obj.is_object());
    EXPECT_TRUE(arr.is_array());
}

TEST(JsonValue, TypeErrorsThrow) {
    Json scalar(1.0);
    EXPECT_THROW(scalar.push_back(1), std::logic_error);
    EXPECT_THROW(scalar.set("k", 1), std::logic_error);
    EXPECT_THROW((void)scalar.size(), std::logic_error);
    Json arr = Json::array();
    EXPECT_THROW(arr.set("k", 1), std::logic_error);
}

TEST(JsonValue, PrettyPrintIndents) {
    Json obj = Json::object();
    obj.set("x", 1);
    const std::string pretty = obj.dump(2);
    EXPECT_NE(pretty.find("{\n  \"x\": 1\n}"), std::string::npos);
}

TEST(JsonValue, FromVectorAndMatrix) {
    EXPECT_EQ(Json::from(Vector{1.0, 2.0}).dump(), "[1,2]");
    EXPECT_EQ(Json::from(Matrix{{1.0, 2.0}, {3.0, 4.0}}).dump(), "[[1,2],[3,4]]");
}

TEST(JsonValue, DumpToFileRoundTrips) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "htd_json_test.json").string();
    Json obj = Json::object();
    obj.set("answer", 42);
    obj.dump_to_file(path);
    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("\"answer\": 42"), std::string::npos);
    std::filesystem::remove(path);
    EXPECT_THROW(obj.dump_to_file("/nonexistent/dir/file.json"), std::runtime_error);
}

TEST(JsonParse, ScalarsAndContainers) {
    EXPECT_TRUE(Json::parse("null").is_null());
    EXPECT_EQ(Json::parse("true").boolean(), true);
    EXPECT_EQ(Json::parse(" false ").boolean(), false);
    EXPECT_DOUBLE_EQ(Json::parse("-12.5e2").number(), -1250.0);
    EXPECT_EQ(Json::parse("\"hi\"").str(), "hi");

    const Json arr = Json::parse("[1, \"two\", null]");
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_DOUBLE_EQ(arr.at(0).number(), 1.0);
    EXPECT_EQ(arr.at(1).str(), "two");
    EXPECT_TRUE(arr.at(2).is_null());

    const Json obj = Json::parse("{\"a\": {\"b\": [true]}}");
    EXPECT_TRUE(obj.contains("a"));
    EXPECT_FALSE(obj.contains("b"));
    EXPECT_EQ(obj.at("a").at("b").at(0).boolean(), true);
}

TEST(JsonParse, EscapesAndUnicode) {
    EXPECT_EQ(Json::parse("\"a\\\"b\\\\c\\n\"").str(), "a\"b\\c\n");
    EXPECT_EQ(Json::parse("\"\\u0041\"").str(), "A");
    // Surrogate pair: U+1D11E (musical G clef) -> 4-byte UTF-8.
    EXPECT_EQ(Json::parse("\"\\uD834\\uDD1E\"").str(), "\xF0\x9D\x84\x9E");
}

TEST(JsonParse, MalformedInputThrows) {
    EXPECT_THROW((void)Json::parse(""), std::invalid_argument);
    EXPECT_THROW((void)Json::parse("{"), std::invalid_argument);
    EXPECT_THROW((void)Json::parse("[1,]"), std::invalid_argument);
    EXPECT_THROW((void)Json::parse("nul"), std::invalid_argument);
    EXPECT_THROW((void)Json::parse("\"unterminated"), std::invalid_argument);
    EXPECT_THROW((void)Json::parse("1 2"), std::invalid_argument);  // trailing
    EXPECT_THROW((void)Json::parse("{\"a\" 1}"), std::invalid_argument);
}

TEST(JsonParse, NumbersFollowTheRfcGrammar) {
    EXPECT_EQ(Json::parse("0").number(), 0.0);
    EXPECT_EQ(Json::parse("-0.5").number(), -0.5);
    EXPECT_EQ(Json::parse("1e-04").number(), 1e-4);
    EXPECT_EQ(Json::parse("2E+2").number(), 200.0);
    // Spellings strtod accepts but JSON does not. In a pretty-printed
    // artifact a one-bit flip can turn "0.5" into " .5", which must not
    // parse as the same value.
    for (const char* bad : {".5", "+1", "01", "-01", "1.", "1.e5", "1e", "1e+", "-", "--1"}) {
        try {
            (void)Json::parse(bad);
            ADD_FAILURE() << bad << " parsed";
        } catch (const htd::io::JsonParseError& e) {
            EXPECT_NE(std::string(e.what()).find("invalid number"), std::string::npos) << bad;
        }
    }
}

TEST(JsonParse, DumpParseRoundTrip) {
    Json doc = Json::object();
    doc.set("name", "round trip");
    doc.set("pi", 3.141592653589793);
    doc.set("flags", Json::array());
    Json nested = Json::array();
    nested.push_back(1).push_back(false).push_back("x\ty");
    doc.set("nested", std::move(nested));

    for (const int indent : {0, 2}) {
        const Json parsed = Json::parse(doc.dump(indent));
        EXPECT_EQ(parsed.dump(), doc.dump());
        EXPECT_DOUBLE_EQ(parsed.at("pi").number(), 3.141592653589793);
        EXPECT_EQ(parsed.at("nested").at(2).str(), "x\ty");
    }
}

TEST(Report, ContainsTable1AndDiagnostics) {
    htd::core::ExperimentConfig config;
    config.n_chips = 8;
    config.pipeline.synthetic_samples = 5000;
    const htd::core::ExperimentResult result = htd::core::run_experiment(config);
    const Json doc = htd::core::experiment_report(config, result);
    const std::string text = doc.dump();
    EXPECT_NE(text.find("\"table1\""), std::string::npos);
    EXPECT_NE(text.find("\"B5\""), std::string::npos);
    EXPECT_NE(text.find("\"golden_chip_baseline\""), std::string::npos);
    EXPECT_NE(text.find("\"mars_mean_r2\""), std::string::npos);
    // Without measurements the per-device dump is absent.
    EXPECT_EQ(text.find("\"devices\""), std::string::npos);

    const Json with_devices =
        htd::core::experiment_report(config, result, /*include_measurements=*/true);
    EXPECT_NE(with_devices.dump().find("\"devices\""), std::string::npos);
}

}  // namespace
