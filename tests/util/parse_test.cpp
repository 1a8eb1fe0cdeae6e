#include "util/parse.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace dm::util {
namespace {

TEST(ParseUnsigned, AcceptsPlainDecimal) {
  EXPECT_EQ(parse_unsigned<int>("0"), 0);
  EXPECT_EQ(parse_unsigned<int>("7"), 7);
  EXPECT_EQ(parse_unsigned<std::uint32_t>("1500"), 1500u);
  EXPECT_EQ(parse_unsigned<std::uint64_t>("18446744073709551615"),
            UINT64_MAX);
}

TEST(ParseUnsigned, RejectsSignJunkAndEmpty) {
  EXPECT_EQ(parse_unsigned<int>("-1"), std::nullopt);
  EXPECT_EQ(parse_unsigned<std::uint32_t>("-1"), std::nullopt);
  EXPECT_EQ(parse_unsigned<std::uint64_t>("-0"), std::nullopt);
  EXPECT_EQ(parse_unsigned<int>("+7"), std::nullopt);
  EXPECT_EQ(parse_unsigned<int>("abc"), std::nullopt);
  EXPECT_EQ(parse_unsigned<int>("7x"), std::nullopt);
  EXPECT_EQ(parse_unsigned<int>(" 7"), std::nullopt);
  EXPECT_EQ(parse_unsigned<int>(""), std::nullopt);
}

TEST(ParseUnsigned, RejectsOverflowOfTheTargetType) {
  EXPECT_EQ(parse_unsigned<std::uint64_t>("18446744073709551616"),
            std::nullopt);
  EXPECT_EQ(parse_unsigned<std::uint32_t>("4294967296"), std::nullopt);
  EXPECT_EQ(parse_unsigned<int>("2147483648"), std::nullopt);
  EXPECT_EQ(parse_unsigned<std::uint32_t>("4294967295"), UINT32_MAX);
}

}  // namespace
}  // namespace dm::util
