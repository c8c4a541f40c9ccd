/** @file Tests for the simulators' per-phase timeline diagnostics and
 * the logging utilities. */

#include <gtest/gtest.h>

#include "common/log.h"
#include "cpusim/multicore_sim.h"
#include "gpusim/mps_sim.h"
#include "vision/registry.h"

namespace {

using namespace mapp;

TEST(GpuTimeline, OneEntryPerPhaseAndConsistentTotals)
{
    const auto& trace = vision::cachedTrace(vision::BenchmarkId::Hog, 20);
    gpusim::MpsSim sim;
    const auto phases = sim.timeline(trace);
    ASSERT_EQ(phases.size(), trace.size());
    double total = 0.0;
    for (const auto& t : phases) {
        EXPECT_GE(t.time, 0.0);
        // The overlapped total can never exceed the sum of components.
        EXPECT_LE(t.time, t.computeTime + t.serialTime + t.memoryTime +
                              t.tlbTime + t.overheadTime + 1e-15);
        total += t.time;
    }
    EXPECT_GT(total, 0.0);
}

TEST(GpuTimeline, StagedPhasesHaveNoSmWork)
{
    const auto& trace =
        vision::cachedTrace(vision::BenchmarkId::Fast, 20);
    gpusim::MpsSim sim;
    const auto phases = sim.timeline(trace);
    bool sawStaged = false;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (!trace.phases()[i].hostStaged)
            continue;
        sawStaged = true;
        EXPECT_DOUBLE_EQ(phases[i].computeTime, 0.0);
        EXPECT_DOUBLE_EQ(phases[i].tlbTime, 0.0);
        EXPECT_GT(phases[i].time, 0.0);
    }
    EXPECT_TRUE(sawStaged);  // image_copy phases exist
}

TEST(CpuAlone, MoreThreadsShrinkParallelPhases)
{
    const auto& trace = vision::cachedTrace(vision::BenchmarkId::Hog, 20);
    cpusim::MulticoreSim sim;
    EXPECT_LT(sim.runAlone(trace, 16).time, sim.runAlone(trace, 1).time);
}

TEST(Log, LevelsControlInform)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    EXPECT_NO_THROW(inform("suppressed"));
    EXPECT_NO_THROW(verbose("suppressed"));
    setLogLevel(LogLevel::Verbose);
    EXPECT_NO_THROW(verbose("printed"));
    setLogLevel(before);
}

TEST(Log, EachLevelWritesItsOwnPrefix)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Debug);
    ::testing::internal::CaptureStderr();
    verbose("v-line");
    debug("d-line");
    const std::string err = ::testing::internal::GetCapturedStderr();
    setLogLevel(before);
    EXPECT_EQ(err, "verbose: v-line\ndebug: d-line\n");
}

TEST(Log, FatalThrowsWithMessage)
{
    try {
        fatal("the message");
        FAIL() << "fatal() must throw";
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(), "the message");
    }
}

TEST(Log, WarnNeverThrows)
{
    EXPECT_NO_THROW(warn("just a warning"));
}

}  // namespace
