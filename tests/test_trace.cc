/** @file Unit tests for KernelPhase and WorkloadTrace. */

#include <gtest/gtest.h>

#include "common/log.h"
#include "isa/trace.h"

namespace {

using namespace mapp::isa;

KernelPhase
makePhase(const std::string& name, mapp::InstCount alu,
          mapp::InstCount mem, double locality = 0.5,
          double parallel = 0.9)
{
    KernelPhase p;
    p.name = name;
    p.mix.add(InstClass::IntAlu, alu);
    p.mix.add(InstClass::MemRead, mem);
    p.bytesRead = mem * 4;
    p.bytesWritten = mem;
    p.footprint = 1024;
    p.locality = locality;
    p.parallelFraction = parallel;
    p.workItems = 100;
    return p;
}

TEST(KernelPhase, ValidateAcceptsWellFormed)
{
    EXPECT_NO_THROW(makePhase("ok", 10, 5).validate());
}

TEST(KernelPhase, ValidateRejectsBadFractions)
{
    auto p = makePhase("bad", 10, 5);
    p.parallelFraction = 1.5;
    EXPECT_THROW(p.validate(), mapp::FatalError);

    p = makePhase("bad", 10, 5);
    p.locality = -0.1;
    EXPECT_THROW(p.validate(), mapp::FatalError);

    p = makePhase("bad", 10, 5);
    p.branchDivergence = 2.0;
    EXPECT_THROW(p.validate(), mapp::FatalError);
}

TEST(KernelPhase, ValidateRejectsEmptyWork)
{
    auto p = makePhase("bad", 10, 5);
    p.workItems = 0;
    EXPECT_THROW(p.validate(), mapp::FatalError);

    KernelPhase empty;
    empty.name = "empty";
    EXPECT_THROW(empty.validate(), mapp::FatalError);
}

TEST(KernelPhase, TrafficSumsReadsAndWrites)
{
    const auto p = makePhase("x", 10, 5);
    EXPECT_EQ(p.traffic(), 25u);
}

TEST(WorkloadTrace, AppendValidatesPhases)
{
    WorkloadTrace t("APP", 20);
    EXPECT_NO_THROW(t.append(makePhase("a", 10, 5)));
    auto bad = makePhase("b", 10, 5);
    bad.workItems = 0;
    EXPECT_THROW(t.append(bad), mapp::FatalError);
    EXPECT_EQ(t.size(), 1u);
}

TEST(WorkloadTrace, AggregatesTotals)
{
    WorkloadTrace t("APP", 20);
    t.append(makePhase("a", 10, 5));
    t.append(makePhase("b", 20, 10));
    EXPECT_EQ(t.totalInstructions(), 45u);
    EXPECT_EQ(t.totalBytesRead(), 60u);
    EXPECT_EQ(t.totalBytesWritten(), 15u);
    EXPECT_EQ(t.totalMix().count(InstClass::IntAlu), 30u);
}

TEST(WorkloadTrace, PeakFootprint)
{
    WorkloadTrace t("APP", 20);
    auto a = makePhase("a", 10, 5);
    a.footprint = 2048;
    auto b = makePhase("b", 10, 5);
    b.footprint = 512;
    t.append(a);
    t.append(b);
    EXPECT_EQ(t.peakFootprint(), 2048u);
}

TEST(WorkloadTrace, WeightedMeansUseInstructionWeights)
{
    WorkloadTrace t("APP", 20);
    // Phase a: 100 insts, locality 1.0; phase b: 300 insts, locality 0.
    t.append(makePhase("a", 100, 0, 1.0));
    t.append(makePhase("b", 300, 0, 0.0));
    EXPECT_NEAR(t.meanLocality(), 0.25, 1e-12);
}

TEST(WorkloadTrace, AppendTraceConcatenates)
{
    WorkloadTrace t1("APP", 20);
    t1.append(makePhase("a", 10, 5));
    WorkloadTrace t2("APP", 20);
    t2.append(makePhase("b", 20, 5));
    t2.append(makePhase("c", 30, 5));
    t1.append(t2);
    EXPECT_EQ(t1.size(), 3u);
    EXPECT_EQ(t1.totalInstructions(), 75u);
}

TEST(WorkloadTrace, SummaryMentionsIdentity)
{
    WorkloadTrace t("SIFT", 40);
    t.append(makePhase("a", 10, 5));
    const std::string s = t.summary();
    EXPECT_NE(s.find("SIFT"), std::string::npos);
    EXPECT_NE(s.find("batch=40"), std::string::npos);
}

TEST(WorkloadTrace, EmptyTraceBehaviour)
{
    WorkloadTrace t("X", 1);
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.totalInstructions(), 0u);
    EXPECT_DOUBLE_EQ(t.meanLocality(), 0.0);
}

}  // namespace
