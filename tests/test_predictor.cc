/** @file Tests for the MultiAppPredictor public API and its
 * cross-validation entry points. */

#include <gtest/gtest.h>

#include "common/log.h"
#include "ml/metrics.h"
#include "predictor/decision_analysis.h"
#include "predictor/predictor.h"

namespace {

using namespace mapp;
using namespace mapp::predictor;
using vision::BenchmarkId;

/** Shared mini-campaign: all 36 hetero pairs + 9 homogeneous at batch
 * 20/40, collected once per process. */
const std::vector<DataPoint>&
miniCampaign()
{
    static const std::vector<DataPoint> points = [] {
        DataCollector collector;
        std::vector<BagSpec> specs;
        for (std::size_t i = 0; i < vision::kAllBenchmarks.size(); ++i) {
            specs.push_back(BagSpec{{vision::kAllBenchmarks[i], 20},
                                    {vision::kAllBenchmarks[i], 20}});
            specs.push_back(BagSpec{{vision::kAllBenchmarks[i], 40},
                                    {vision::kAllBenchmarks[i], 40}});
            for (std::size_t j = i + 1; j < vision::kAllBenchmarks.size();
                 ++j) {
                specs.push_back(BagSpec{{vision::kAllBenchmarks[i], 20},
                                        {vision::kAllBenchmarks[j], 20}});
            }
        }
        return collector.collectAll(specs);
    }();
    return points;
}

std::vector<std::string>
benchNames()
{
    std::vector<std::string> names;
    for (auto id : vision::kAllBenchmarks)
        names.push_back(vision::benchmarkName(id));
    return names;
}

TEST(Predictor, TrainsAndPredictsInRange)
{
    MultiAppPredictor model;
    model.train(miniCampaign());
    EXPECT_TRUE(model.trained());
    EXPECT_GT(model.tree().nodeCount(), 3u);

    double lo = 1e300;
    double hi = 0.0;
    for (const auto& p : miniCampaign()) {
        lo = std::min(lo, p.gpuBagTime);
        hi = std::max(hi, p.gpuBagTime);
    }
    for (const auto& p : miniCampaign()) {
        const double pred = model.predict(p);
        EXPECT_GE(pred, lo - 1e-12);
        EXPECT_LE(pred, hi + 1e-12);
    }
}

TEST(Predictor, TrainingFitIsTight)
{
    // With a deep tree the in-sample error must be small.
    MultiAppPredictor model;
    model.train(miniCampaign());
    double err = 0.0;
    for (const auto& p : miniCampaign())
        err += ml::relativeErrorPercent(p.gpuBagTime, model.predict(p));
    err /= static_cast<double>(miniCampaign().size());
    EXPECT_LT(err, 10.0);
}

TEST(Predictor, PredictBeforeTrainIsFatal)
{
    MultiAppPredictor model;
    EXPECT_THROW(model.predict(miniCampaign().front()), FatalError);
    EXPECT_THROW(model.tree(), FatalError);
}

TEST(Predictor, TrainOnEmptyIsFatal)
{
    MultiAppPredictor model;
    EXPECT_THROW(model.train(std::vector<DataPoint>{}), FatalError);
}

TEST(Predictor, ExplainReportsPathOverSchemeFeatures)
{
    MultiAppPredictor model;
    model.train(miniCampaign());
    const auto e = model.explain(miniCampaign().front());
    EXPECT_GT(e.predictedSeconds, 0.0);
    EXPECT_FALSE(e.path.empty());
    for (const auto& step : e.path) {
        ASSERT_GE(step.feature, 0);
        ASSERT_LT(static_cast<std::size_t>(step.feature),
                  e.featureNames.size());
    }
    EXPECT_DOUBLE_EQ(e.predictedSeconds,
                     model.predict(miniCampaign().front()));
}

TEST(Predictor, FeatureImportancesSumToOne)
{
    MultiAppPredictor model;
    model.train(miniCampaign());
    double total = 0.0;
    for (const auto& [name, importance] : model.featureImportances()) {
        EXPECT_FALSE(name.empty());
        total += importance;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Predictor, SchemeRestrictsFeatures)
{
    PredictorParams params;
    params.scheme = insmixScheme();
    MultiAppPredictor model(params);
    model.train(miniCampaign());
    const auto e = model.explain(miniCampaign().front());
    for (const auto& name : e.featureNames) {
        EXPECT_EQ(name.find("cpu_time"), std::string::npos);
        EXPECT_EQ(name.find("gpu_time"), std::string::npos);
        EXPECT_EQ(name.find("fairness"), std::string::npos);
    }
}

TEST(Predictor, LoocvHasOneFoldPerBenchmark)
{
    const auto raw = toDataset(miniCampaign());
    const auto cv = MultiAppPredictor::looBenchmarkCv(
        raw, PredictorParams{}, benchNames());
    ASSERT_EQ(cv.folds.size(), 9u);
    for (const auto& fold : cv.folds) {
        // Every benchmark appears in 2 homogeneous + 8 hetero bags.
        EXPECT_EQ(fold.testPoints, 10u) << fold.label;
        EXPECT_GE(fold.meanRelativeError, 0.0);
    }
}

TEST(Predictor, FullSchemeBeatsInsmixOnLoocv)
{
    // The paper's headline comparison (Figure 5), at mini-campaign
    // scale: the full feature vector must beat instruction mix alone by
    // a wide margin.
    const auto raw = toDataset(miniCampaign());
    PredictorParams full;
    PredictorParams insmix;
    insmix.scheme = insmixScheme();
    const double fullErr = MultiAppPredictor::looBenchmarkCv(
                               raw, full, benchNames())
                               .meanRelativeError();
    const double insmixErr = MultiAppPredictor::looBenchmarkCv(
                                 raw, insmix, benchNames())
                                 .meanRelativeError();
    EXPECT_LT(fullErr * 1.5, insmixErr);
}

TEST(DecisionAnalysis, CoversAllTestPointsAndFeatures)
{
    const auto raw = toDataset(miniCampaign());
    const auto stats = analyzeDecisionPaths(raw, PredictorParams{},
                                            benchNames());
    // Every bag appears in the union of held-out folds; hetero bags
    // appear twice (once per member benchmark).
    EXPECT_EQ(stats.points.size(), 9u * 10u);
    EXPECT_EQ(stats.features.size(), 12u);  // 11 base + fairness
    for (const auto& f : stats.features) {
        ASSERT_TRUE(stats.presencePercent.count(f));
        EXPECT_GE(stats.presencePercent.at(f), 0.0);
        EXPECT_LE(stats.presencePercent.at(f), 100.0);
        EXPECT_LE(stats.meanUsage.at(f),
                  static_cast<double>(stats.maxUsage.at(f)));
    }
}

TEST(DecisionAnalysis, TimesDominateDecisionPaths)
{
    // Section VI-C: the GPU/CPU time features gate the predictions far
    // more often than any single mix class.
    const auto raw = toDataset(miniCampaign());
    const auto stats = analyzeDecisionPaths(raw, PredictorParams{},
                                            benchNames());
    const double timePresence =
        std::max(stats.presencePercent.at("gpu_time"),
                 stats.presencePercent.at("cpu_time"));
    EXPECT_GT(timePresence, 75.0);
}

}  // namespace
