/** @file Unit tests for CSV writing: RFC 4180 quoting. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/csv.h"

namespace {

using namespace mapp;

TEST(Csv, EscapePlainCellUnchanged)
{
    EXPECT_EQ(csvEscape("hello"), "hello");
    EXPECT_EQ(csvEscape(""), "");
}

TEST(Csv, EscapeCommaAndQuote)
{
    EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
    EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, EscapeLineBreaks)
{
    EXPECT_EQ(csvEscape("line1\nline2"), "\"line1\nline2\"");
    EXPECT_EQ(csvEscape("a\rb"), "\"a\rb\"");
}

TEST(Csv, WriterQuotesOnlyCellsThatNeedIt)
{
    std::ostringstream os;
    CsvWriter w(os);
    w.writeHeader({"x", "label"});
    w.writeRow({"1.5", "alpha,beta"});
    w.writeRow({"", "plain"});
    EXPECT_EQ(os.str(), "x,label\n1.5,\"alpha,beta\"\n,plain\n");
}

}  // namespace
