// The shared from_chars tokenizer behind every text-format reader, and
// the one numeric parser behind every text-to-number conversion.
#include "core/text_scan.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

#include <gtest/gtest.h>

#include "core/error.hpp"

namespace epgs::text {
namespace {

TEST(LineScanner, SplitsLinesAndCountsFromOne) {
  LineScanner lines("a\nb\n\nc");
  std::string_view line;
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "a");
  EXPECT_EQ(lines.line_no(), 1u);
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "b");
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "");
  ASSERT_TRUE(lines.next(line));
  EXPECT_EQ(line, "c");  // no trailing newline
  EXPECT_EQ(lines.line_no(), 4u);
  EXPECT_FALSE(lines.next(line));
}

TEST(LineScanner, EmptyInputYieldsNoLines) {
  LineScanner lines("");
  std::string_view line;
  EXPECT_FALSE(lines.next(line));
}

TEST(NextToken, SkipsWhitespaceIncludingCarriageReturn) {
  std::string_view line = "  12\t34 56\r";
  EXPECT_EQ(next_token(line), "12");
  EXPECT_EQ(next_token(line), "34");
  EXPECT_EQ(next_token(line), "56");
  EXPECT_EQ(next_token(line), "");  // exhausted
}

TEST(NextField, SplitsOnDelimiterKeepingEmptyFields) {
  std::string_view line = "a,,c";
  EXPECT_EQ(next_field(line, ','), "a");
  EXPECT_EQ(next_field(line, ','), "");
  EXPECT_EQ(next_field(line, ','), "c");
  EXPECT_TRUE(line.empty());
}

TEST(NextField, StripsTrailingCarriageReturn) {
  std::string_view line = "1,2\r";
  EXPECT_EQ(next_field(line, ','), "1");
  EXPECT_EQ(next_field(line, ','), "2");
}

TEST(ParseU64, AcceptsFullTokenOnly) {
  EXPECT_EQ(parse<std::uint64_t>("42", "t", "x", 1), 42u);
  EXPECT_THROW((void)parse<std::uint64_t>("", "t", "x", 1), ParseError);
  EXPECT_THROW((void)parse<std::uint64_t>("4x2", "t", "x", 1), ParseError);
  EXPECT_THROW((void)parse<std::uint64_t>("-1", "t", "x", 1), ParseError);
  EXPECT_THROW((void)parse<std::uint64_t>("3.5", "t", "x", 1), ParseError);
}

TEST(ParseDouble, AcceptsWriterForms) {
  EXPECT_DOUBLE_EQ(parse<double>("2.5", "t", "w", 1), 2.5);
  EXPECT_DOUBLE_EQ(parse<double>("1e-3", "t", "w", 1), 1e-3);
  EXPECT_DOUBLE_EQ(parse<double>("-4", "t", "w", 1), -4.0);
  EXPECT_THROW((void)parse<double>("fast", "t", "w", 1), ParseError);
  EXPECT_THROW((void)parse<double>("1.2.3", "t", "w", 1), ParseError);
}

// What each caller type reads from one token; nullopt means rejected.
struct ParseRow {
  std::string_view tok;
  std::optional<int> i;
  std::optional<std::int64_t> i64;
  std::optional<std::uint32_t> u32;
  std::optional<std::uint64_t> u64;
  std::optional<double> d;
};

constexpr auto kNo = std::nullopt;
const double kNan = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

// try_parse<T> gives `want`; parse<T> returns it or throws ParseError.
template <class T>
void expect_parse(std::string_view tok, std::optional<T> want,
                  int base = 10) {
  const std::optional<T> got = try_parse<T>(tok, base);
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want) {
    if (base == 10) {
      EXPECT_THROW((void)parse<T>(tok, "t", "x", 1), ParseError);
    }
    return;
  }
  if constexpr (std::is_floating_point_v<T>) {
    if (std::isnan(*want)) {
      EXPECT_TRUE(std::isnan(*got));
      EXPECT_TRUE(std::isnan(parse<T>(tok, "t", "x", 1)));
      return;
    }
  }
  EXPECT_EQ(*got, *want);
  if (base == 10) EXPECT_EQ(parse<T>(tok, "t", "x", 1), *want);
}

TEST(TextParse, WholeTokenGrammarForEveryCallerType) {
  const ParseRow rows[] = {
      // {token, int, int64_t, uint32_t, uint64_t, double}
      {"42", 42, 42, 42u, 42u, 42.0},
      {"-4", -4, -4, kNo, kNo, -4.0},
      {"-1", -1, -1, kNo, kNo, -1.0},
      {"4294967296", kNo, 4294967296, kNo, 4294967296u, 4294967296.0},
      {"2.5", kNo, kNo, kNo, kNo, 2.5},
      {"3.5", kNo, kNo, kNo, kNo, 3.5},
      {".5", kNo, kNo, kNo, kNo, 0.5},
      {"1e-3", kNo, kNo, kNo, kNo, 1e-3},
      {"nan", kNo, kNo, kNo, kNo, kNan},
      {"-nan", kNo, kNo, kNo, kNo, kNan},
      {"inf", kNo, kNo, kNo, kNo, kInf},
      // Rejected by every type.
      {"", kNo, kNo, kNo, kNo, kNo},
      {" 1", kNo, kNo, kNo, kNo, kNo},
      {"1 ", kNo, kNo, kNo, kNo, kNo},
      {"+1", kNo, kNo, kNo, kNo, kNo},
      {"1x", kNo, kNo, kNo, kNo, kNo},
      {"4x2", kNo, kNo, kNo, kNo, kNo},
      {"0x10", kNo, kNo, kNo, kNo, kNo},
      {"1e400", kNo, kNo, kNo, kNo, kNo},
      {"1.2.3", kNo, kNo, kNo, kNo, kNo},
      {"fast", kNo, kNo, kNo, kNo, kNo},
      {"ff", kNo, kNo, kNo, kNo, kNo},
  };
  for (const ParseRow& r : rows) {
    SCOPED_TRACE("token '" + std::string(r.tok) + "'");
    expect_parse<int>(r.tok, r.i);
    expect_parse<std::int64_t>(r.tok, r.i64);
    expect_parse<std::uint32_t>(r.tok, r.u32);
    expect_parse<std::uint64_t>(r.tok, r.u64);
    expect_parse<double>(r.tok, r.d);
  }
  // Base 16 (the serve frame length) for every integer type.
  expect_parse<int>("ff", 255, 16);
  expect_parse<std::int64_t>("ff", 255, 16);
  expect_parse<std::uint32_t>("ff", 255u, 16);
  expect_parse<std::uint64_t>("ff", 255u, 16);
  expect_parse<std::uint64_t>("0x10", kNo, 16);
}

TEST(ParseVid, EnforcesThirtyTwoBitRange) {
  EXPECT_EQ(parse_vid("7", "t", 1), 7u);
  EXPECT_THROW((void)parse_vid("4294967295", "t", 1), EpgsError);
  EXPECT_THROW((void)parse_vid("nine", "t", 1), ParseError);
}

TEST(Fail, MessageNamesContextTokenAndLine) {
  try {
    fail("mtx", "weight", "abc", 17);
    FAIL() << "fail() must throw";
  } catch (const ParseError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("mtx"), std::string::npos);
    EXPECT_NE(msg.find("weight"), std::string::npos);
    EXPECT_NE(msg.find("'abc'"), std::string::npos);
    EXPECT_NE(msg.find("17"), std::string::npos);
  }
}

}  // namespace
}  // namespace epgs::text
