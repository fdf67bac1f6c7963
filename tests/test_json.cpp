#include "support/json.hpp"

#include <gtest/gtest.h>

#include <fstream>

namespace librisk::json {
namespace {

TEST(Json, Scalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-3.25").as_number(), -3.25);
  EXPECT_DOUBLE_EQ(parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(parse("2.5E-2").as_number(), 0.025);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse("  42  ").as_number(), 42.0);  // surrounding whitespace
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b")").as_string(), "a\"b");
  EXPECT_EQ(parse(R"("line\nbreak\ttab")").as_string(), "line\nbreak\ttab");
  EXPECT_EQ(parse(R"("back\\slash \/ slash")").as_string(), "back\\slash / slash");
  EXPECT_EQ(parse(R"("Aé")").as_string(), "A\xC3\xA9");
  EXPECT_EQ(parse(R"("€")").as_string(), "\xE2\x82\xAC");  // euro sign
}

TEST(Json, ArraysAndObjects) {
  const Value v = parse(R"({"jobs": 3000, "policies": ["EDF", "Libra"],
                            "nested": {"ok": true, "x": null}})");
  EXPECT_EQ(v.type(), Type::Object);
  EXPECT_DOUBLE_EQ(v.find("jobs")->as_number(), 3000.0);
  const Array& policies = v.find("policies")->as_array();
  ASSERT_EQ(policies.size(), 2u);
  EXPECT_EQ(policies[0].as_string(), "EDF");
  EXPECT_TRUE(v.find("nested")->find("ok")->as_bool());
  EXPECT_TRUE(v.find("nested")->find("x")->is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, EmptyContainers) {
  EXPECT_TRUE(parse("[]").as_array().empty());
  EXPECT_TRUE(parse("{}").as_object().empty());
  EXPECT_TRUE(parse("[ ]").as_array().empty());
}

TEST(Json, TypedDefaults) {
  const Value v = parse(R"({"a": 1, "b": "x", "c": true})");
  EXPECT_DOUBLE_EQ(v.number_or("a", 9.0), 1.0);
  EXPECT_DOUBLE_EQ(v.number_or("zz", 9.0), 9.0);
  EXPECT_EQ(v.int_or("a", 7), 1);
  EXPECT_EQ(v.string_or("b", "d"), "x");
  EXPECT_EQ(v.string_or("zz", "d"), "d");
  EXPECT_TRUE(v.bool_or("c", false));
  EXPECT_FALSE(v.bool_or("zz", false));
}

TEST(Json, TypeMismatchesThrow) {
  const Value v = parse(R"({"a": "text"})");
  EXPECT_THROW((void)v.find("a")->as_number(), ParseError);
  EXPECT_THROW((void)v.find("a")->as_array(), ParseError);
  EXPECT_THROW((void)parse("3.5").as_int(), ParseError);
  EXPECT_THROW((void)parse("1e10").as_int(), ParseError);  // out of int range
  EXPECT_EQ(parse("7").as_int(), 7);
}

TEST(Json, MalformedInputsThrowWithPosition) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\" 1}", "{\"a\":1,}", "[1 2]", "tru", "01",
        "1.", "1e", "\"unterminated", "\"bad\\escape\"", "{\"a\":1}{",
        "\"\\ud800\"", "nul", "+1", "{1: 2}"}) {
    EXPECT_THROW((void)parse(bad), ParseError) << "input: " << bad;
  }
  try {
    (void)parse("{\n  \"a\": bogus\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

// A literal beyond double's range is a ParseError at the number, not a
// std::out_of_range escaping the parser; underflow rounds toward zero.
TEST(Json, OutOfRangeNumbersThrowParseError) {
  for (const char* bad : {"1e400", "-1e400", "[1, 2e999]", "{\"job\":1e400}"}) {
    try {
      (void)parse(bad);
      ADD_FAILURE() << "expected ParseError for " << bad;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << e.what();
    }
  }
  try {
    (void)parse("{\n  \"a\": 1e400\n}");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2, column 8"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(parse("1e-400").as_number(), 0.0);
  EXPECT_EQ(parse("1.7976931348623157e308").as_number(), 1.7976931348623157e308);
}

TEST(Json, DuplicateKeysRejected) {
  EXPECT_THROW((void)parse(R"({"a":1, "a":2})"), ParseError);
}

TEST(Json, RawControlCharactersRejected) {
  const std::string with_newline = std::string("\"a\nb\"");
  EXPECT_THROW((void)parse(with_newline), ParseError);
}

TEST(Json, DumpRoundTrips) {
  const char* doc =
      R"({"b":true,"n":null,"num":2.5,"s":"a\"b","arr":[1,2],"o":{"k":"v"}})";
  const Value v = parse(doc);
  const Value again = parse(v.dump());
  EXPECT_EQ(again.find("num")->as_number(), 2.5);
  EXPECT_EQ(again.find("s")->as_string(), "a\"b");
  EXPECT_EQ(again.find("arr")->as_array().size(), 2u);
  EXPECT_EQ(v.dump(), again.dump());  // stable fixed point
}

TEST(Json, ParseFileErrors) {
  EXPECT_THROW((void)parse_file("/no/such/config.json"), ParseError);
}

TEST(Json, ParseFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/librisk_config.json";
  {
    std::ofstream out(path);
    out << R"({"jobs": 500, "policy": "LibraRisk"})";
  }
  const Value v = parse_file(path);
  EXPECT_EQ(v.int_or("jobs", 0), 500);
  EXPECT_EQ(v.string_or("policy", ""), "LibraRisk");
}

}  // namespace
}  // namespace librisk::json
