/** @file Unit tests for the deterministic xoshiro256++ generator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "common/rng.h"

namespace {

using mapp::Rng;

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedIsValid)
{
    Rng r(0);
    std::set<std::uint64_t> vals;
    for (int i = 0; i < 32; ++i)
        vals.insert(r.next());
    EXPECT_GT(vals.size(), 30u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(11);
    double acc = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        acc += r.uniform();
    EXPECT_NEAR(acc / n, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i) {
        const double v = r.uniform(-5.0, 3.0);
        EXPECT_GE(v, -5.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng r(5);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.uniformInt(2, 6);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 6);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);  // all values reachable
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng r(9);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(r.uniformInt(4, 4), 4);
}

TEST(Rng, NormalMomentsApproximatelyStandard)
{
    Rng r(13);
    const int n = 50000;
    double sum = 0.0;
    double sq = 0.0;
    for (int i = 0; i < n; ++i) {
        const double v = r.normal();
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.03);
    EXPECT_NEAR(var, 1.0, 0.05);
}

}  // namespace
