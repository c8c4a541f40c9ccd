/** @file Unit tests for instruction classes and mixes. */

#include <gtest/gtest.h>

#include "common/log.h"
#include "isa/inst_mix.h"

namespace {

using namespace mapp::isa;

TEST(InstClass, NamesMatchFigure12Labels)
{
    EXPECT_EQ(instClassName(InstClass::MemRead), "mem_rd");
    EXPECT_EQ(instClassName(InstClass::MemWrite), "mem_wr");
    EXPECT_EQ(instClassName(InstClass::Control), "ctrl");
    EXPECT_EQ(instClassName(InstClass::IntAlu), "arith");
    EXPECT_EQ(instClassName(InstClass::FpAlu), "fp");
    EXPECT_EQ(instClassName(InstClass::Stack), "stack");
    EXPECT_EQ(instClassName(InstClass::Shift), "shift");
    EXPECT_EQ(instClassName(InstClass::String), "string");
    EXPECT_EQ(instClassName(InstClass::Simd), "sse");
}

TEST(InstMix, StartsEmpty)
{
    InstMix m;
    EXPECT_EQ(m.total(), 0u);
    EXPECT_DOUBLE_EQ(m.percent(InstClass::IntAlu), 0.0);
}

TEST(InstMix, AddAndCount)
{
    InstMix m;
    m.add(InstClass::IntAlu, 30);
    m.add(InstClass::FpAlu, 10);
    m.add(InstClass::IntAlu);  // default +1
    EXPECT_EQ(m.count(InstClass::IntAlu), 31u);
    EXPECT_EQ(m.total(), 41u);
}

TEST(InstMix, PercentagesSumTo100)
{
    InstMix m;
    m.add(InstClass::MemRead, 10);
    m.add(InstClass::IntAlu, 20);
    m.add(InstClass::Control, 5);
    double sum = 0.0;
    for (InstClass c : kAllInstClasses)
        sum += m.percent(c);
    EXPECT_NEAR(sum, 100.0, 1e-9);
}

TEST(InstMix, FractionMatchesPercent)
{
    InstMix m;
    m.add(InstClass::Simd, 1);
    m.add(InstClass::IntAlu, 3);
    EXPECT_DOUBLE_EQ(m.fraction(InstClass::Simd), 0.25);
    EXPECT_DOUBLE_EQ(m.percent(InstClass::Simd), 25.0);
}

TEST(InstMix, AccumulateOperator)
{
    InstMix a;
    a.add(InstClass::IntAlu, 5);
    InstMix b;
    b.add(InstClass::IntAlu, 3);
    b.add(InstClass::FpAlu, 2);
    a += b;
    EXPECT_EQ(a.count(InstClass::IntAlu), 8u);
    EXPECT_EQ(a.count(InstClass::FpAlu), 2u);
}

TEST(InstMix, ScaledMultipliesAllCounts)
{
    InstMix m;
    m.add(InstClass::MemRead, 7);
    m.add(InstClass::Control, 3);
    const InstMix s = m.scaled(4);
    EXPECT_EQ(s.count(InstClass::MemRead), 28u);
    EXPECT_EQ(s.count(InstClass::Control), 12u);
    // Percentages are scale-invariant.
    EXPECT_DOUBLE_EQ(s.percent(InstClass::MemRead),
                     m.percent(InstClass::MemRead));
}

TEST(InstMix, EqualityComparesCounts)
{
    InstMix a;
    a.add(InstClass::IntAlu, 1);
    InstMix b;
    b.add(InstClass::IntAlu, 1);
    EXPECT_EQ(a, b);
    b.add(InstClass::FpAlu, 1);
    EXPECT_NE(a, b);
}

}  // namespace
