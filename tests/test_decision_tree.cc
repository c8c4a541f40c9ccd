/** @file Unit and property tests for the CART regression tree. */

#include <gtest/gtest.h>

#include <cmath>

#include "common/log.h"
#include "common/rng.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"

namespace {

using namespace mapp;
using namespace mapp::ml;

/** y = step function of x0 — a tree should nail this. */
Dataset
stepDataset()
{
    Dataset d({"x0", "x1"});
    for (int i = 0; i < 20; ++i) {
        const double x = static_cast<double>(i);
        d.addRow({x, 0.5}, x < 10.0 ? 1.0 : 5.0, "g");
    }
    return d;
}

TEST(DecisionTree, FitsStepFunctionExactly)
{
    DecisionTreeRegressor tree;
    tree.fit(stepDataset());
    EXPECT_TRUE(tree.trained());
    EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{3.0, 0.5}), 1.0);
    EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{15.0, 0.5}), 5.0);
}

TEST(DecisionTree, RootSplitOnInformativeFeature)
{
    DecisionTreeRegressor tree;
    tree.fit(stepDataset());
    const auto path =
        tree.decisionPath(std::vector<double>{3.0, 0.5});
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path[0].feature, 0);  // x0 drives the target
    EXPECT_NEAR(path[0].threshold, 9.5, 0.51);
}

TEST(DecisionTree, ConstantTargetGivesSingleLeaf)
{
    Dataset d({"x"});
    for (int i = 0; i < 10; ++i)
        d.addRow({static_cast<double>(i)}, 7.0, "g");
    DecisionTreeRegressor tree;
    tree.fit(d);
    EXPECT_EQ(tree.nodeCount(), 1u);
    EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{100.0}), 7.0);
}

TEST(DecisionTree, RespectsMaxDepth)
{
    Rng rng(1);
    Dataset d({"x"});
    for (int i = 0; i < 200; ++i) {
        const double x = rng.uniform(0.0, 1.0);
        d.addRow({x}, std::sin(10.0 * x), "g");
    }
    DecisionTreeParams params;
    params.maxDepth = 3;
    params.minSamplesLeaf = 1;
    DecisionTreeRegressor tree(params);
    tree.fit(d);
    EXPECT_LE(tree.depth(), 3);
}

TEST(DecisionTree, RespectsMinSamplesLeaf)
{
    Rng rng(2);
    Dataset d({"x"});
    for (int i = 0; i < 50; ++i) {
        const double x = rng.uniform(0.0, 1.0);
        d.addRow({x}, x * x, "g");
    }
    DecisionTreeParams params;
    params.minSamplesLeaf = 5;
    DecisionTreeRegressor tree(params);
    tree.fit(d);
    // Every decision path must end in a leaf whose sample count >= 5.
    // Verify indirectly: deep, tiny leaves would let the tree memorize;
    // with minSamplesLeaf 5 on 50 points the node count is bounded.
    EXPECT_LE(tree.nodeCount(), 2u * 10u + 1u);
}

TEST(DecisionTree, PredictionIsTrainTargetMeanInLeaf)
{
    // Two clusters with different spreads: leaves predict cluster means.
    Dataset d({"x"});
    d.addRow({0.0}, 1.0, "g");
    d.addRow({0.1}, 3.0, "g");
    d.addRow({10.0}, 10.0, "g");
    d.addRow({10.1}, 14.0, "g");
    DecisionTreeParams params;
    params.maxDepth = 1;
    DecisionTreeRegressor tree(params);
    tree.fit(d);
    EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{0.05}), 2.0);
    EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{10.05}), 12.0);
}

TEST(DecisionTree, EmptyFitIsFatal)
{
    DecisionTreeRegressor tree;
    EXPECT_THROW(tree.fit(Dataset({"x"})), FatalError);
}

TEST(DecisionTree, PredictBeforeFitIsFatal)
{
    DecisionTreeRegressor tree;
    EXPECT_THROW(tree.predict(std::vector<double>{1.0}), FatalError);
}

TEST(DecisionTree, FitRejectsRaggedRows)
{
    DecisionTreeRegressor tree;
    const std::vector<std::vector<double>> rows{
        {1.0, 2.0}, {3.0}, {5.0, 6.0}};
    EXPECT_THROW(tree.fit(rows, {1.0, 2.0, 3.0}), FatalError);
    EXPECT_FALSE(tree.trained());
}

TEST(DecisionTree, FitRejectsNameCountOtherThanRowWidth)
{
    const std::vector<std::vector<double>> rows{
        {1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}, {7.0, 8.0}};
    const std::vector<double> targets{1.0, 1.0, 5.0, 5.0};
    DecisionTreeRegressor tree;
    EXPECT_THROW(tree.fit(rows, targets, {"only_one"}), FatalError);
    EXPECT_THROW(tree.fit(rows, targets, {"a", "b", "c"}), FatalError);
    tree.fit(rows, targets, {"a", "b"});
    EXPECT_EQ(tree.featureImportances().size(), 2u);
}

TEST(DecisionTree, PredictRejectsSampleOfWrongWidth)
{
    DecisionTreeRegressor tree;
    tree.fit(stepDataset());
    const std::vector<double> shortRow{3.0};
    const std::vector<double> longRow{3.0, 0.5, 1.0};
    for (const auto* x : {&shortRow, &longRow}) {
        EXPECT_THROW(tree.predict(*x), FatalError);
        EXPECT_THROW(tree.predictLeaf(*x), FatalError);
        EXPECT_THROW(tree.decisionPath(*x), FatalError);
        EXPECT_THROW(tree.featureUsageCounts(*x), FatalError);
    }
    EXPECT_THROW(tree.predictLeaf(std::vector<double>{}), FatalError);
}

TEST(DecisionTree, PredictBatchRejectsBadShapes)
{
    DecisionTreeRegressor untrained;
    std::vector<double> one(1);
    EXPECT_THROW(untrained.predictBatch(std::vector<double>{1.0, 2.0}, 2,
                                        one),
                 FatalError);

    DecisionTreeRegressor tree;
    tree.fit(stepDataset());
    std::vector<double> out(3);
    // Not 3 rows x 2 features.
    const std::vector<double> flat{1.0, 2.0, 3.0, 4.0};
    EXPECT_THROW(tree.predictBatch(flat, 2, out), FatalError);
    // 2 rows x 2 features, but the tree reads 2 features, not 1 or 4.
    std::vector<double> four(4);
    EXPECT_THROW(tree.predictBatch(flat, 1, four), FatalError);
    std::vector<double> single(1);
    EXPECT_THROW(tree.predictBatch(flat, 4, single), FatalError);

    std::vector<double> two(2);
    tree.predictBatch(flat, 2, two);
    EXPECT_EQ(two[0], tree.predict(std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(two[1], tree.predict(std::vector<double>{3.0, 4.0}));
    std::vector<double> none;
    tree.predictBatch({}, 2, none);  // an empty batch is fine
}

TEST(DecisionTree, DecisionPathConsistentWithPrediction)
{
    DecisionTreeRegressor tree;
    tree.fit(stepDataset());
    const std::vector<double> x{12.0, 0.5};
    const auto path = tree.decisionPath(x);
    for (const auto& step : path) {
        const bool left =
            x[static_cast<std::size_t>(step.feature)] <= step.threshold;
        EXPECT_EQ(left, step.wentLeft);
    }
}

TEST(DecisionTree, FeatureUsageCountsMatchPath)
{
    DecisionTreeRegressor tree;
    tree.fit(stepDataset());
    const std::vector<double> x{12.0, 0.5};
    const auto counts = tree.featureUsageCounts(x);
    const auto path = tree.decisionPath(x);
    int total = 0;
    for (int c : counts)
        total += c;
    EXPECT_EQ(total, static_cast<int>(path.size()));
    EXPECT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[1], 0);  // x1 is uninformative
}

TEST(DecisionTree, ImportancesSumToOneAndFavorSignal)
{
    DecisionTreeRegressor tree;
    tree.fit(stepDataset());
    const auto imp = tree.featureImportances();
    ASSERT_EQ(imp.size(), 2u);
    EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
    EXPECT_GT(imp[0], 0.99);
}

TEST(DecisionTree, TextAndDotExports)
{
    DecisionTreeRegressor tree;
    tree.fit(stepDataset());
    const std::string text = tree.toText();
    EXPECT_NE(text.find("x0"), std::string::npos);
    EXPECT_NE(text.find("leaf"), std::string::npos);
    const std::string dot = tree.toDot();
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
}

/** Property sweep: training error decreases (weakly) with depth. */
class TreeDepthProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(TreeDepthProperty, TrainingErrorMonotoneInDepth)
{
    Rng rng(7);
    Dataset d({"a", "b"});
    for (int i = 0; i < 120; ++i) {
        const double a = rng.uniform(0.0, 1.0);
        const double b = rng.uniform(0.0, 1.0);
        d.addRow({a, b}, std::sin(6.0 * a) + 0.3 * b, "g");
    }
    const int depth = GetParam();
    auto fitError = [&](int maxDepth) {
        DecisionTreeParams params;
        params.maxDepth = maxDepth;
        params.minSamplesLeaf = 1;
        DecisionTreeRegressor tree(params);
        tree.fit(d);
        return meanSquaredError(d.targets(), tree.predict(d));
    };
    EXPECT_LE(fitError(depth + 1), fitError(depth) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Depths, TreeDepthProperty,
                         ::testing::Values(1, 2, 3, 4, 6));

/** Property sweep: predictions always lie within the target range. */
class TreeRangeProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TreeRangeProperty, PredictionsBoundedByTargets)
{
    Rng rng(GetParam());
    Dataset d({"x", "y", "z"});
    double lo = 1e300;
    double hi = -1e300;
    for (int i = 0; i < 60; ++i) {
        const double t = rng.uniform(-5.0, 5.0);
        lo = std::min(lo, t);
        hi = std::max(hi, t);
        d.addRow({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                  rng.uniform(0.0, 1.0)},
                 t, "g");
    }
    DecisionTreeRegressor tree;
    tree.fit(d);
    for (int i = 0; i < 100; ++i) {
        const std::vector<double> x{rng.uniform(-1.0, 2.0),
                                    rng.uniform(-1.0, 2.0),
                                    rng.uniform(-1.0, 2.0)};
        const double p = tree.predict(x);
        EXPECT_GE(p, lo - 1e-9);
        EXPECT_LE(p, hi + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeRangeProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
