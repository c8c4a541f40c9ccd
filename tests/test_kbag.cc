/** @file Tests for the k-app bag extension (Section VII open problem). */

#include <gtest/gtest.h>

#include "common/log.h"
#include "ml/metrics.h"
#include "predictor/kbag.h"

namespace {

using namespace mapp;
using namespace mapp::predictor;
using vision::BenchmarkId;

DataCollector&
collector()
{
    static DataCollector instance;
    return instance;
}

KBagCollector&
kcollector()
{
    static KBagCollector instance(collector());
    return instance;
}

TEST(KBagSpec, CanonicalSortsMembers)
{
    KBagSpec spec;
    spec.members = {{BenchmarkId::Sift, 20},
                    {BenchmarkId::Fast, 40},
                    {BenchmarkId::Fast, 20}};
    const auto canon = spec.canonical();
    EXPECT_EQ(canon.members[0].id, BenchmarkId::Fast);
    EXPECT_EQ(canon.members[0].batchSize, 20);
    EXPECT_EQ(canon.members[1].batchSize, 40);
    EXPECT_EQ(canon.members[2].id, BenchmarkId::Sift);
}

TEST(KBagSpec, GroupLabel)
{
    KBagSpec spec;
    spec.members = {{BenchmarkId::Fast, 20}, {BenchmarkId::Hog, 40},
                    {BenchmarkId::Svm, 20}};
    EXPECT_EQ(spec.groupLabel(), "FAST+HoG+SVM");
}

TEST(KBagFeatures, NamesScaleWithK)
{
    EXPECT_EQ(kBagFeatureNames(2).size(), 23u);
    EXPECT_EQ(kBagFeatureNames(3).size(), 34u);
    EXPECT_EQ(kBagFeatureNames(4).back(), "fairness");
    EXPECT_EQ(kBagFeatureNames(3)[22], "a2_cpu_time");
}

TEST(KBagCollector, CampaignLayout)
{
    const auto specs = kcollector().campaign(3, 12, 7);
    EXPECT_EQ(specs.size(), 9u + 12u);
    for (std::size_t i = 0; i < 9; ++i) {
        EXPECT_EQ(specs[i].members.size(), 3u);
        EXPECT_EQ(specs[i].members[0].id, specs[i].members[2].id);
    }
    for (const auto& spec : specs)
        EXPECT_EQ(spec.members.size(), 3u);
}

TEST(KBagCollector, CampaignDeterministic)
{
    const auto a = kcollector().campaign(3, 10, 42);
    const auto b = kcollector().campaign(3, 10, 42);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].members, b[i].members);
}

TEST(KBagCollector, CollectMeasuresPlausibly)
{
    KBagSpec spec;
    spec.members = {{BenchmarkId::Hog, 20},
                    {BenchmarkId::Fast, 20},
                    {BenchmarkId::Surf, 20}};
    const auto point = kcollector().collect(spec);
    EXPECT_EQ(point.apps.size(), 3u);
    EXPECT_GT(point.gpuBagTime, 0.0);
    EXPECT_GT(point.fairness, 0.0);
    EXPECT_LE(point.fairness, 1.0 + 1e-9);
    // A 3-bag must take at least as long as the slowest member alone.
    double slowest = 0.0;
    for (const auto& app : point.apps)
        slowest = std::max(slowest, app.gpuTime);
    EXPECT_GE(point.gpuBagTime, slowest * (1.0 - 1e-9));
}

TEST(KBagCollector, RejectsTinyBags)
{
    KBagSpec spec;
    spec.members = {{BenchmarkId::Hog, 20}};
    EXPECT_THROW(kcollector().collect(spec), FatalError);
}

TEST(KBagPredictor, TrainPredict3Bags)
{
    const auto specs = kcollector().campaign(3, 16, 3);
    std::vector<KBagPoint> points;
    for (const auto& spec : specs)
        points.push_back(kcollector().collect(spec));

    KBagPredictor model(3);
    model.train(points);
    EXPECT_TRUE(model.trained());

    // In-sample fit must be tight (deterministic targets).
    double err = 0.0;
    for (const auto& p : points)
        err += ml::relativeErrorPercent(p.gpuBagTime, model.predict(p));
    EXPECT_LT(err / static_cast<double>(points.size()), 15.0);
}

TEST(KBagPredictor, GeneralizesToUnseen3Bag)
{
    const auto specs = kcollector().campaign(3, 20, 5);
    std::vector<KBagPoint> points;
    for (const auto& spec : specs)
        points.push_back(kcollector().collect(spec));

    KBagPredictor model(3);
    model.train(points);

    KBagSpec unseen;
    unseen.members = {{BenchmarkId::Knn, 20},
                      {BenchmarkId::Orb, 40},
                      {BenchmarkId::FaceDet, 20}};
    const auto truth = kcollector().collect(unseen);
    const double err = ml::relativeErrorPercent(truth.gpuBagTime,
                                                model.predict(truth));
    EXPECT_LT(err, 120.0);  // sane, not wildly extrapolated
}

TEST(KBagPredictor, SizeMismatchesAreFatal)
{
    KBagPredictor model(3);
    EXPECT_THROW(model.train({}), FatalError);
    EXPECT_THROW(KBagPredictor bad(1), FatalError);

    const auto specs = kcollector().campaign(3, 4, 1);
    std::vector<KBagPoint> points;
    for (const auto& spec : specs)
        points.push_back(kcollector().collect(spec));
    model.train(points);

    KBagSpec two;
    two.members = {{BenchmarkId::Hog, 20}, {BenchmarkId::Fast, 20}};
    const auto point = kcollector().collect(two);
    EXPECT_THROW(model.predict(point), FatalError);
}

TEST(KBagPredictor, FairnessDropsWithBagSize)
{
    // Larger heterogeneous bags have more slowdown asymmetry: fairness
    // of a nested 4-bag can only be <= the 2-bag's (min/max over a
    // superset of slowdowns widens the spread).
    KBagSpec two;
    two.members = {{BenchmarkId::Svm, 20}, {BenchmarkId::Surf, 20}};
    KBagSpec four;
    four.members = {{BenchmarkId::Svm, 20},
                    {BenchmarkId::Surf, 20},
                    {BenchmarkId::Sift, 20},
                    {BenchmarkId::Fast, 20}};
    const auto p2 = kcollector().collect(two);
    const auto p4 = kcollector().collect(four);
    EXPECT_LE(p4.fairness, p2.fairness + 0.15);
}

}  // namespace
