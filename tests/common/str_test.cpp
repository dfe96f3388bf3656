#include "common/str.hpp"

#include <gtest/gtest.h>

namespace dmsched {
namespace {

TEST(Str, Strformat) {
  EXPECT_EQ(strformat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strformat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strformat("empty"), "empty");
}

TEST(Str, StrformatLongOutput) {
  const std::string long_arg(500, 'a');
  EXPECT_EQ(strformat("[%s]", long_arg.c_str()).size(), 502u);
}

TEST(Str, SplitWsDropsEmpty) {
  const auto parts = split_ws("  1   2\t3\n 4  ");
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "1");
  EXPECT_EQ(parts[3], "4");
}

TEST(Str, SplitWsAllWhitespace) {
  EXPECT_TRUE(split_ws(" \t\n ").empty());
  EXPECT_TRUE(split_ws("").empty());
}

TEST(Str, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Str, ParseI64Valid) {
  std::int64_t v = 0;
  EXPECT_TRUE(parse_i64("123", v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(parse_i64("-5", v));
  EXPECT_EQ(v, -5);
  EXPECT_TRUE(parse_i64("  42  ", v));  // trims
  EXPECT_EQ(v, 42);
}

TEST(Str, ParseI64Invalid) {
  std::int64_t v = 0;
  EXPECT_FALSE(parse_i64("", v));
  EXPECT_FALSE(parse_i64("abc", v));
  EXPECT_FALSE(parse_i64("12x", v));
  EXPECT_FALSE(parse_i64("1.5", v));
}

TEST(Str, ParseDoubleValid) {
  double v = 0;
  EXPECT_TRUE(parse_double("1.5", v));
  EXPECT_DOUBLE_EQ(v, 1.5);
  EXPECT_TRUE(parse_double("-2e3", v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
  EXPECT_TRUE(parse_double("7", v));
  EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(Str, ParseDoubleInvalid) {
  double v = 0;
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double("x", v));
  EXPECT_FALSE(parse_double("1.5z", v));
}

}  // namespace
}  // namespace dmsched
