/**
 * @file
 * Unit tests for the structured error subsystem: Error/SourceContext
 * formatting, Result<T> plumbing, and the strict numeric parsers that
 * every input boundary is built on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "common/error.h"
#include "common/parse.h"

namespace {

using namespace mapp;

// ---------------------------------------------------------------------------
// Error / SourceContext

TEST(Error, DescribeOnlyKnownParts)
{
    EXPECT_EQ(SourceContext{}.describe(), "");
    EXPECT_EQ((SourceContext{"a.csv", 0, ""}).describe(), "a.csv");
    EXPECT_EQ((SourceContext{"a.csv", 3, "x"}).describe(),
              "a.csv, row 3, column 'x'");
    EXPECT_EQ((SourceContext{"", 7, ""}).describe(), "row 7");
}

TEST(Error, ToStringIncludesCodeLocationAndMessage)
{
    const Error e(ErrorCode::Parse, "bad number '1x'",
                  {"bags.csv", 3, "batch"});
    EXPECT_EQ(e.toString(),
              "parse error at bags.csv, row 3, column 'batch': "
              "bad number '1x'");
}

TEST(Error, ToStringWithoutContext)
{
    const Error e(ErrorCode::Io, "cannot open file");
    EXPECT_EQ(e.toString(), "io error: cannot open file");
}

TEST(Error, CodeNamesAreStable)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::Io), "io");
    EXPECT_STREQ(errorCodeName(ErrorCode::Parse), "parse");
    EXPECT_STREQ(errorCodeName(ErrorCode::Range), "range");
    EXPECT_STREQ(errorCodeName(ErrorCode::Schema), "schema");
    EXPECT_STREQ(errorCodeName(ErrorCode::InvalidArgument),
                 "invalid-argument");
}

TEST(Error, RaiseThrowsInputErrorCatchableAsFatalError)
{
    try {
        raise({ErrorCode::Schema, "wrong header", {"t.csv", 0, ""}});
        FAIL() << "raise did not throw";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("t.csv"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("wrong header"),
                  std::string::npos);
    }
}

TEST(Error, InputErrorKeepsStructuredPayload)
{
    try {
        raise({ErrorCode::Range, "too big", {"f.csv", 2, "batch"}});
        FAIL() << "raise did not throw";
    } catch (const InputError& e) {
        EXPECT_EQ(e.error().code(), ErrorCode::Range);
        EXPECT_EQ(e.error().context().row, 2u);
        EXPECT_EQ(e.error().context().column, "batch");
    }
}

// ---------------------------------------------------------------------------
// Result<T>

TEST(Result, ValueSide)
{
    const Result<int> r(42);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(static_cast<bool>(r));
    EXPECT_EQ(r.value(), 42);
}

TEST(Result, ErrorSide)
{
    const Result<int> r(Error{ErrorCode::Parse, "nope"});
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::Parse);
}

// ---------------------------------------------------------------------------
// parseDouble

TEST(ParseDouble, AcceptsOrdinaryNumbers)
{
    EXPECT_DOUBLE_EQ(parseDouble("1.5").value(), 1.5);
    EXPECT_DOUBLE_EQ(parseDouble("-2e3").value(), -2000.0);
    EXPECT_DOUBLE_EQ(parseDouble("0").value(), 0.0);
    EXPECT_DOUBLE_EQ(parseDouble("  3.25\t").value(), 3.25);
}

TEST(ParseDouble, RejectsTrailingGarbage)
{
    const auto r = parseDouble("1.5abc");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::Parse);
    EXPECT_NE(r.error().message().find("1.5abc"), std::string::npos);
}

TEST(ParseDouble, RejectsEmptyAndNonNumeric)
{
    EXPECT_FALSE(parseDouble("").ok());
    EXPECT_FALSE(parseDouble("   ").ok());
    EXPECT_FALSE(parseDouble("abc").ok());
    EXPECT_FALSE(parseDouble("--1").ok());
}

TEST(ParseDouble, RejectsNanAndInf)
{
    for (const char* text : {"nan", "NaN", "inf", "-inf", "Infinity"}) {
        const auto r = parseDouble(text);
        ASSERT_FALSE(r.ok()) << text;
        EXPECT_EQ(r.error().code(), ErrorCode::Range) << text;
    }
}

TEST(ParseDouble, RejectsOverflow)
{
    const auto r = parseDouble("1e999");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::Range);
}

TEST(ParseDouble, RejectsHexAndPartialTokens)
{
    EXPECT_FALSE(parseDouble("0x10").ok());
    EXPECT_FALSE(parseDouble("1.5 2.5").ok());
}

// ---------------------------------------------------------------------------
// parseBoundedInt

constexpr int kIntMin = std::numeric_limits<int>::min();
constexpr int kIntMax = std::numeric_limits<int>::max();

TEST(ParseBoundedInt, AcceptsAndBounds)
{
    EXPECT_EQ(parseBoundedInt("42", kIntMin, kIntMax).value(), 42);
    EXPECT_EQ(parseBoundedInt("-7", kIntMin, kIntMax).value(), -7);
    EXPECT_EQ(parseBoundedInt(" 10 ", kIntMin, kIntMax).value(), 10);
    EXPECT_EQ(parseBoundedInt("5", 0, 10).value(), 5);
    EXPECT_EQ(parseBoundedInt("100", 1, 1000).value(), 100);
}

TEST(ParseBoundedInt, RejectsGarbageAndFloats)
{
    EXPECT_FALSE(parseBoundedInt("1x6", kIntMin, kIntMax).ok());
    EXPECT_FALSE(parseBoundedInt("3.5", kIntMin, kIntMax).ok());
    EXPECT_FALSE(parseBoundedInt("", kIntMin, kIntMax).ok());
    EXPECT_FALSE(parseBoundedInt("12abc", kIntMin, kIntMax).ok());
    EXPECT_FALSE(parseBoundedInt("abc", kIntMin, kIntMax).ok());
}

TEST(ParseBoundedInt, RejectsOutOfRange)
{
    const auto r = parseBoundedInt("11", 0, 10);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::Range);
    EXPECT_NE(r.error().message().find("[0, 10]"), std::string::npos);
    EXPECT_FALSE(parseBoundedInt("-1", 0, 10).ok());
    EXPECT_FALSE(parseBoundedInt("0", 1, 1000).ok());
    // Wider than int, and wider than any integer type.
    const auto wide = parseBoundedInt("2147483648", 1, kIntMax);
    ASSERT_FALSE(wide.ok());
    EXPECT_EQ(wide.error().code(), ErrorCode::Range);
    EXPECT_FALSE(
        parseBoundedInt("99999999999999999999999999", kIntMin, kIntMax)
            .ok());
}

TEST(Parse, LongCellIsTruncatedInMessage)
{
    const std::string cell(300, 'z');
    const auto r = parseDouble(cell);
    ASSERT_FALSE(r.ok());
    EXPECT_LT(r.error().message().size(), 120u);
    EXPECT_NE(r.error().message().find("..."), std::string::npos);
}

}  // namespace
