/** @file Unit tests for descriptive statistics. */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/stats.h"

namespace {

using namespace mapp::stats;

TEST(Stats, MeanOfKnownValues)
{
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanOfEmptyIsZero)
{
    EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, MinMax)
{
    const std::vector<double> xs{3.0, -1.0, 7.0};
    EXPECT_DOUBLE_EQ(minimum(xs), -1.0);
    EXPECT_DOUBLE_EQ(maximum(xs), 7.0);
}

TEST(Stats, PearsonPerfectPositive)
{
    const std::vector<double> xs{1.0, 2.0, 3.0};
    const std::vector<double> ys{2.0, 4.0, 6.0};
    EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
}

TEST(Stats, PearsonPerfectNegative)
{
    const std::vector<double> xs{1.0, 2.0, 3.0};
    const std::vector<double> ys{6.0, 4.0, 2.0};
    EXPECT_NEAR(pearson(xs, ys), -1.0, 1e-12);
}

TEST(Stats, PearsonZeroVarianceGuard)
{
    const std::vector<double> xs{1.0, 1.0, 1.0};
    const std::vector<double> ys{1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, RanksHandleTies)
{
    const std::vector<double> xs{10.0, 20.0, 20.0, 30.0};
    const auto r = ranks(xs);
    EXPECT_DOUBLE_EQ(r[0], 1.0);
    EXPECT_DOUBLE_EQ(r[1], 2.5);
    EXPECT_DOUBLE_EQ(r[2], 2.5);
    EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, SpearmanMonotonicNonlinear)
{
    // y = x^3 is monotone: Spearman 1 even though the relation is
    // nonlinear.
    const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
    const std::vector<double> ys{1.0, 8.0, 27.0, 64.0, 125.0};
    EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
}

}  // namespace
