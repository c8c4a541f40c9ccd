/** @file Tests for the benchmark registry and profiling batch runner. */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cache/artifact_cache.h"
#include "common/log.h"
#include "obs/timer.h"
#include "vision/registry.h"

namespace {

using namespace mapp;
using namespace mapp::vision;

TEST(Registry, NamesRoundTrip)
{
    for (BenchmarkId id : kAllBenchmarks)
        EXPECT_EQ(benchmarkFromName(benchmarkName(id)), id);
}

TEST(Registry, UnknownNameIsFatal)
{
    EXPECT_THROW(benchmarkFromName("NOPE"), FatalError);
}

TEST(Registry, NineBenchmarksMatchTable2)
{
    EXPECT_EQ(kNumBenchmarks, 9);
    EXPECT_EQ(benchmarkName(BenchmarkId::ObjRec), "OBJREC");
    EXPECT_EQ(benchmarkName(BenchmarkId::FaceDet), "FACEDET");
    for (BenchmarkId id : kAllBenchmarks)
        EXPECT_FALSE(benchmarkDescription(id).empty());
}

TEST(Registry, PaperBatchSizes)
{
    ASSERT_EQ(kBatchSizes.size(), 5u);
    EXPECT_EQ(kBatchSizes[0], 20);
    EXPECT_EQ(kBatchSizes[4], 320);
}

TEST(Registry, GenerateBatchDeterministic)
{
    const auto a = generateBatch(BenchmarkId::Sift, 3, 7);
    const auto b = generateBatch(BenchmarkId::Sift, 3, 7);
    ASSERT_EQ(a.size(), 3u);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].data(), b[i].data());
}

TEST(Registry, GenerateBatchVariesWithSeed)
{
    const auto a = generateBatch(BenchmarkId::Sift, 1, 7);
    const auto b = generateBatch(BenchmarkId::Sift, 1, 8);
    EXPECT_NE(a[0].data(), b[0].data());
}

TEST(Registry, EveryBenchmarkRunsOnASmallBatch)
{
    for (BenchmarkId id : kAllBenchmarks) {
        const auto batch = generateBatch(id, 4, 1);
        EXPECT_NO_THROW(runBenchmark(id, batch))
            << benchmarkName(id);
    }
}

TEST(Registry, ProfileWorkloadProducesNonEmptyTrace)
{
    const auto trace = profileWorkload(BenchmarkId::Hog, 20);
    EXPECT_EQ(trace.app(), "HoG");
    EXPECT_EQ(trace.batchSize(), 20);
    EXPECT_FALSE(trace.empty());
    EXPECT_GT(trace.totalInstructions(), 0u);
}

TEST(Registry, ProfileWorkloadRejectsBadBatch)
{
    EXPECT_THROW(profileWorkload(BenchmarkId::Hog, 0), FatalError);
}

TEST(Registry, SampledScalingGrowsWithBatch)
{
    // Per-image benchmarks are sampled + scaled: instructions should be
    // roughly proportional to the batch size.
    const auto t20 = profileWorkload(BenchmarkId::Fast, 20);
    const auto t80 = profileWorkload(BenchmarkId::Fast, 80);
    const double ratio =
        static_cast<double>(t80.totalInstructions()) /
        static_cast<double>(t20.totalInstructions());
    EXPECT_GT(ratio, 2.5);
    EXPECT_LT(ratio, 6.0);
}

TEST(Registry, ScaleTraceMultipliesCountsNotFootprint)
{
    const auto base = profileWorkload(BenchmarkId::Fast, 4);
    const auto scaled = scaleTrace(base, 3);
    EXPECT_EQ(scaled.totalInstructions(), base.totalInstructions() * 3);
    EXPECT_EQ(scaled.totalBytesRead(), base.totalBytesRead() * 3);
    EXPECT_EQ(scaled.peakFootprint(), base.peakFootprint());
    ASSERT_EQ(scaled.size(), base.size());
    EXPECT_EQ(scaled.phases()[0].launches,
              base.phases()[0].launches * 3);
}

TEST(Registry, CachedTraceIsStable)
{
    const auto& a = cachedTrace(BenchmarkId::Svm, 20);
    const auto& b = cachedTrace(BenchmarkId::Svm, 20);
    EXPECT_EQ(&a, &b);  // same object, memoized
    EXPECT_EQ(a.app(), "SVM");
}

/** Entries of the phase named @p name anywhere in @p node's subtree. */
std::uint64_t
phaseCount(const obs::PhaseNode& node, const std::string& name)
{
    std::uint64_t n = node.name == name ? node.count : 0;
    for (const auto& child : node.children)
        n += phaseCount(child, name);
    return n;
}

TEST(Registry, CachedTraceProfilesUnderAVisionProfilePhase)
{
    // Profile for real: a stored trace would load without a phase.
    auto& artifacts = cache::defaultArtifactCache();
    const std::string dir = artifacts.directory();
    artifacts.setDirectory("");
    const auto phases = [] {
        return obs::phaseTree(obs::defaultRegistry().snapshot());
    };
    const auto before = phaseCount(phases(), "vision-profile");
    cachedTrace(BenchmarkId::FaceDet, 40);  // first use: profiled
    cachedTrace(BenchmarkId::FaceDet, 40);  // memo hit: no new phase
    EXPECT_EQ(phaseCount(phases(), "vision-profile"), before + 1);
    artifacts.setDirectory(dir);
}

TEST(Registry, DistinctBenchmarksHaveDistinctMixes)
{
    // The predictor depends on benchmarks being distinguishable by mix:
    // compare FAST (integer/control heavy) vs SVM (SIMD heavy).
    const auto fast = profileWorkload(BenchmarkId::Fast, 20).totalMix();
    const auto svm = profileWorkload(BenchmarkId::Svm, 20).totalMix();
    EXPECT_GT(fast.fraction(isa::InstClass::Control),
              svm.fraction(isa::InstClass::Control));
    EXPECT_GT(svm.fraction(isa::InstClass::Simd),
              fast.fraction(isa::InstClass::Simd));
}

TEST(Registry, FaceDetBatchesContainFaces)
{
    // FaceDet inputs come from the faces generator, so the detector
    // actually finds work to do.
    const auto batch = generateBatch(BenchmarkId::FaceDet, 2, 3);
    EXPECT_GT(runBenchmark(BenchmarkId::FaceDet, batch), 0u);
}

}  // namespace
