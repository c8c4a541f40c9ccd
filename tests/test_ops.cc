/** @file Unit tests for the instrumented vision primitives: both their
 * functional results and the phases they record. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "profiler/op_profiler.h"
#include "vision/ops.h"

namespace {

using namespace mapp;
using namespace mapp::vision;

/** Run fn inside a profiler session and return the recorded trace. */
template <typename Fn>
isa::WorkloadTrace
traced(Fn&& fn)
{
    profiler::ProfilerSession session("T", 1);
    fn();
    return session.take();
}

Image
randomImage(int w, int h, std::uint64_t seed)
{
    Rng rng(seed);
    Image img(w, h);
    for (auto& v : img.data())
        v = static_cast<float>(rng.uniform(0.0, 255.0));
    return img;
}

TEST(Ops, ConvolveIdentityKernel)
{
    const Image img = randomImage(12, 12, 1);
    const std::vector<float> kernel{0, 0, 0, 0, 1, 0, 0, 0, 0};
    const Image out = ops::convolve2d(img, kernel, 3);
    for (int y = 0; y < 12; ++y)
        for (int x = 0; x < 12; ++x)
            EXPECT_NEAR(out.at(x, y), img.at(x, y), 1e-4);
}

TEST(Ops, ConvolveRecordsPhaseWithCorrectTapCount)
{
    const Image img = randomImage(8, 8, 2);
    const std::vector<float> kernel(9, 1.0f / 9.0f);
    const auto trace = traced([&] { ops::convolve2d(img, kernel, 3); });
    ASSERT_EQ(trace.size(), 1u);
    const auto& p = trace.phases()[0];
    EXPECT_EQ(p.name, "convolve2d");
    EXPECT_EQ(p.mix.count(isa::InstClass::MemRead), 64u * 9u);
    EXPECT_EQ(p.mix.count(isa::InstClass::MemWrite), 64u);
    EXPECT_EQ(p.workItems, 64u);
}

TEST(Ops, GaussianBlurPreservesConstantImage)
{
    const Image img(16, 16, 42.0f);
    const Image out = ops::gaussianBlur(img, 1.2f);
    for (float v : out.data())
        EXPECT_NEAR(v, 42.0f, 1e-3);
}

TEST(Ops, GaussianBlurSmooths)
{
    Image img(17, 17, 0.0f);
    img.at(8, 8) = 100.0f;  // impulse
    const Image out = ops::gaussianBlur(img, 1.5f);
    EXPECT_LT(out.at(8, 8), 100.0f);
    EXPECT_GT(out.at(8, 8), out.at(8, 4));  // peak stays central
}

TEST(Ops, SobelDetectsVerticalEdge)
{
    Image img(10, 10, 0.0f);
    for (int y = 0; y < 10; ++y)
        for (int x = 5; x < 10; ++x)
            img.at(x, y) = 100.0f;
    Image gx, gy;
    ops::sobel(img, gx, gy);
    EXPECT_GT(std::abs(gx.at(4, 5)), 100.0f);
    EXPECT_NEAR(gy.at(4, 5), 0.0f, 1e-3);
    EXPECT_NEAR(gx.at(1, 5), 0.0f, 1e-3);
}

TEST(Ops, GradientPolarMagnitudeAndAngle)
{
    Image gx(3, 3, 3.0f);
    Image gy(3, 3, 4.0f);
    Image mag, orient;
    ops::gradientPolar(gx, gy, mag, orient);
    EXPECT_NEAR(mag.at(1, 1), 5.0f, 1e-4);
    EXPECT_NEAR(orient.at(1, 1), std::atan2(4.0, 3.0), 1e-4);
}

TEST(Ops, Downsample2xAverages)
{
    Image img(4, 4, 0.0f);
    img.at(0, 0) = 4.0f;
    img.at(1, 0) = 8.0f;
    img.at(0, 1) = 12.0f;
    img.at(1, 1) = 16.0f;
    const Image out = ops::downsample2x(img);
    EXPECT_EQ(out.width(), 2);
    EXPECT_NEAR(out.at(0, 0), 10.0f, 1e-4);
}

TEST(Ops, ResizeBilinearPreservesConstant)
{
    const Image img(9, 9, 7.0f);
    const Image out = ops::resizeBilinear(img, 5, 13);
    EXPECT_EQ(out.width(), 5);
    EXPECT_EQ(out.height(), 13);
    for (float v : out.data())
        EXPECT_NEAR(v, 7.0f, 1e-4);
}

TEST(Ops, IntegralMatchesDirectConstruction)
{
    const Image img = randomImage(7, 5, 3);
    const IntegralImage a = ops::integral(img);
    const IntegralImage b(img);
    EXPECT_NEAR(a.boxSum(1, 1, 5, 3), b.boxSum(1, 1, 5, 3), 1e-9);
}

TEST(Ops, NonMaxSuppressFindsIsolatedPeak)
{
    Image resp(9, 9, 0.0f);
    resp.at(4, 4) = 10.0f;
    resp.at(1, 1) = 5.0f;
    const auto maxima = ops::nonMaxSuppress(resp, 1.0f, 2);
    ASSERT_EQ(maxima.size(), 2u);
}

TEST(Ops, NonMaxSuppressRejectsNeighbors)
{
    Image resp(9, 9, 0.0f);
    resp.at(4, 4) = 10.0f;
    resp.at(5, 4) = 9.0f;  // suppressed by the neighbor
    const auto maxima = ops::nonMaxSuppress(resp, 1.0f, 2);
    ASSERT_EQ(maxima.size(), 1u);
    EXPECT_EQ(maxima[0].first, 4);
}

TEST(Ops, DistanceMatrixValues)
{
    const std::vector<Descriptor> a{{0.0f, 0.0f}, {1.0f, 1.0f}};
    const std::vector<Descriptor> b{{0.0f, 1.0f}};
    const auto d = ops::distanceMatrix(a, b);
    ASSERT_EQ(d.size(), 2u);
    EXPECT_DOUBLE_EQ(d[0], 1.0);
    EXPECT_DOUBLE_EQ(d[1], 1.0);
}

TEST(Ops, CopyImageIsExactAndStaged)
{
    const Image img = randomImage(6, 6, 4);
    const auto trace = traced([&] {
        const Image out = ops::copyImage(img);
        EXPECT_EQ(out.data(), img.data());
    });
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_TRUE(trace.phases()[0].hostStaged);
    EXPECT_GT(trace.phases()[0].mix.count(isa::InstClass::String), 0u);
}

TEST(Ops, PhasesValidateThemselves)
{
    // Every op must record a well-formed phase; run a sampler of ops
    // under a session and rely on record()'s validation.
    const Image img = randomImage(16, 16, 5);
    const auto trace = traced([&] {
        Image gx, gy, mag, orient;
        ops::sobel(img, gx, gy);
        ops::gradientPolar(gx, gy, mag, orient);
        ops::integral(img);
        ops::downsample2x(img);
        ops::gaussianBlur(img, 1.0f);
    });
    EXPECT_EQ(trace.size(), 5u);
    for (const auto& p : trace.phases())
        EXPECT_NO_THROW(p.validate());
}

}  // namespace
