/** @file Inference suite: the tree's batch walk, leaf lookup and
 * decision path agree with its one-sample predict() bit for bit —
 * fuzzed over random trees and probe vectors (including degenerate
 * single-leaf trees, probes placed exactly on split thresholds and NaN
 * features), across every batch length from 1 to 700 rows — and the
 * predictor's batched entry points agree with per-row prediction on
 * the real campaign. */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "predictor/data_collection.h"
#include "predictor/predictor.h"
#include "predictor/scheduler.h"

namespace {

using namespace mapp;

/** Random regression dataset; constant targets when @p flat. */
ml::Dataset
randomDataset(Rng& rng, std::size_t rows, std::size_t features,
              bool flat = false)
{
    std::vector<std::string> names;
    for (std::size_t f = 0; f < features; ++f)
        names.push_back("f" + std::to_string(f));
    ml::Dataset d(names);
    for (std::size_t r = 0; r < rows; ++r) {
        std::vector<double> row;
        for (std::size_t f = 0; f < features; ++f)
            row.push_back(rng.uniform(-10.0, 10.0));
        const double target = flat ? 3.25 : rng.uniform(-5.0, 5.0);
        d.addRow(std::move(row), target, "g");
    }
    return d;
}

/** Longest batch the fuzz sweeps. */
constexpr std::size_t kMaxBatchRows = 700;

/**
 * A row-major probe batch of @p rows rows: random points, each with
 * one feature set exactly ON the threshold of a random node of
 * @p tree (the <= boundary), and a NaN feature in every 13th row (NaN
 * fails <=, so it must route right).
 */
std::vector<double>
probeBatch(Rng& rng, const ml::DecisionTreeRegressor& tree,
           std::size_t features, std::size_t rows)
{
    std::vector<double> flat;
    flat.reserve(rows * features);
    for (std::size_t i = 0; i < rows * features; ++i)
        flat.push_back(rng.uniform(-12.0, 12.0));
    for (std::size_t r = 0; r < rows; ++r) {
        const auto v = tree.nodeView(static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(tree.nodeCount()) - 1)));
        if (!v.leaf)
            flat[r * features + static_cast<std::size_t>(v.feature)] =
                v.threshold;
        if (r % 13 == 0)
            flat[r * features +
                 static_cast<std::size_t>(rng.uniformInt(
                     0, static_cast<int>(features) - 1))] =
                std::numeric_limits<double>::quiet_NaN();
    }
    return flat;
}

/** The node the decision path of @p x ends on (walked by hand from the
 * path's last step). */
int
pathEnd(const ml::DecisionTreeRegressor& tree, std::span<const double> x)
{
    const auto path = tree.decisionPath(x);
    if (path.empty())
        return 0;
    const auto last = tree.nodeView(
        static_cast<std::size_t>(path.back().nodeId));
    return path.back().wentLeft ? last.left : last.right;
}

TEST(TreeInference, FuzzBatchLeafAndPathAgreeWithPredict)
{
    Rng rng(2026);
    for (int trial = 0; trial < 40; ++trial) {
        const auto rows =
            static_cast<std::size_t>(rng.uniformInt(2, 80));
        const auto features =
            static_cast<std::size_t>(rng.uniformInt(1, 8));
        const bool flat = trial % 7 == 0;  // single-leaf trees too
        const auto d = randomDataset(rng, rows, features, flat);

        ml::DecisionTreeParams params;
        params.maxDepth = static_cast<int>(rng.uniformInt(1, 9));
        params.minSamplesLeaf = static_cast<int>(rng.uniformInt(1, 3));
        ml::DecisionTreeRegressor tree(params);
        tree.fit(d);

        const auto probes = probeBatch(rng, tree, features, kMaxBatchRows);
        std::vector<double> oracle(kMaxBatchRows);
        for (std::size_t r = 0; r < kMaxBatchRows; ++r) {
            const auto x = std::span(probes).subspan(r * features, features);
            oracle[r] = tree.predict(x);
            const int leaf = tree.predictLeaf(x);
            ASSERT_EQ(leaf, pathEnd(tree, x)) << "row " << r;
            const auto view = tree.nodeView(static_cast<std::size_t>(leaf));
            ASSERT_TRUE(view.leaf) << "row " << r;
            ASSERT_EQ(view.value, oracle[r]) << "row " << r;
        }
        // Every prefix length on some trials, one random one on the
        // rest: the batch walk must not depend on the batch's size.
        std::vector<std::size_t> lengths;
        if (trial % 4 == 0)
            for (std::size_t n = 1; n <= kMaxBatchRows; ++n)
                lengths.push_back(n);
        else
            lengths.push_back(static_cast<std::size_t>(
                rng.uniformInt(1, static_cast<int>(kMaxBatchRows))));
        std::vector<double> out;
        for (std::size_t n : lengths) {
            out.assign(n, 0.0);
            tree.predictBatch(std::span(probes).first(n * features),
                              features, out);
            ASSERT_EQ(0, std::memcmp(out.data(), oracle.data(),
                                     n * sizeof(double)))
                << "batch of " << n << " rows";
        }
    }
}

TEST(TreeInference, SingleLeafTree)
{
    Rng rng(7);
    const auto d = randomDataset(rng, 5, 3, /*flat=*/true);
    ml::DecisionTreeRegressor tree;
    tree.fit(d);
    ASSERT_EQ(tree.nodeCount(), 1u);

    const std::vector<double> x{0.0, 1.0, 2.0};
    EXPECT_EQ(tree.predictLeaf(x), 0);
    EXPECT_TRUE(tree.decisionPath(x).empty());
    std::vector<double> out(2);
    const std::vector<double> flat{0.0, 1.0, 2.0, 3.0, 4.0, 5.0};
    tree.predictBatch(flat, 3, out);
    EXPECT_EQ(out[0], tree.predict(x));
    EXPECT_EQ(out[1], out[0]);
}

/** The real campaign: every tree and forest entry point reproduces
 * the one-sample walk bit for bit on every measured data point. */
TEST(CampaignInference, CampaignDatasetPinned)
{
    predictor::DataCollector collector;
    const auto points = collector.collectAll(
        predictor::DataCollector::campaign91());
    const auto raw = predictor::toDataset(points);

    ml::DecisionTreeRegressor tree;
    tree.fit(raw);
    const auto treeBatch = tree.predict(raw);
    std::vector<double> flatOut(raw.size());
    tree.predictBatch(raw.toRowMajor(), raw.numFeatures(), flatOut);
    EXPECT_EQ(treeBatch, flatOut);

    ml::RandomForestParams fp;
    fp.numTrees = 50;
    ml::RandomForestRegressor forest(fp);
    forest.fit(raw);
    const auto forestBatch = forest.predict(raw);
    for (std::size_t i = 0; i < raw.size(); ++i) {
        EXPECT_EQ(treeBatch[i], tree.predict(raw.row(i)));
        EXPECT_EQ(forestBatch[i], forest.predict(raw.row(i)));
    }

    // The predictor's batched entry points agree with its
    // per-point predictions (and with each other).
    predictor::MultiAppPredictor model;
    model.train(raw);
    const auto batched = model.predictDataset(raw);
    std::vector<predictor::BagQuery> queries;
    for (const auto& p : points)
        queries.push_back({p.a, p.b, p.fairness});
    const auto queryBatch = model.predictBatch(queries);
    ASSERT_EQ(batched.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double one = model.predict(points[i]);
        EXPECT_EQ(one, batched[i]);
        EXPECT_EQ(one, queryBatch[i]);
        EXPECT_EQ(one, model.explain(points[i]).predictedSeconds);
    }
}

/** MultiAppPredictor::predictBatch over every length 1..700 of a query
 * list drawn from the campaign (with repeats) equals per-row predict()
 * bit for bit. */
TEST(CampaignInference, PredictorBatchLengthsMatchPerRow)
{
    predictor::DataCollector collector;
    const auto points = collector.collectAll(
        predictor::DataCollector::campaign91());
    predictor::MultiAppPredictor model;
    model.train(points);

    Rng rng(91);
    std::vector<predictor::BagQuery> queries;
    std::vector<double> single;
    for (std::size_t i = 0; i < kMaxBatchRows; ++i) {
        const auto& p = points[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(points.size()) - 1))];
        queries.push_back({p.a, p.b, p.fairness});
        single.push_back(model.predict(p.a, p.b, p.fairness));
    }
    for (std::size_t n = 1; n <= kMaxBatchRows; ++n) {
        const std::vector<predictor::BagQuery> prefix(
            queries.begin(), queries.begin() + static_cast<long>(n));
        const auto batch = model.predictBatch(prefix);
        ASSERT_EQ(0, std::memcmp(batch.data(), single.data(),
                                 n * sizeof(double)))
            << "batch of " << n << " queries";
    }
}

/** Batched scheduler scoring must pick the same pairings as per-bag
 * prediction. */
TEST(CampaignInference, SchedulerBatchedScoringMatchesOneRowPredict)
{
    predictor::DataCollector collector;
    const auto points = collector.collectAll(
        predictor::DataCollector::campaign91());
    predictor::MultiAppPredictor model;
    model.train(points);
    const predictor::CoScheduler scheduler(model, collector);

    const std::vector<predictor::BagMember> jobs{
        {vision::BenchmarkId::Fast, 20}, {vision::BenchmarkId::Sift, 40},
        {vision::BenchmarkId::Hog, 20},  {vision::BenchmarkId::Surf, 20},
        {vision::BenchmarkId::Orb, 80},
    };
    for (const auto policy : {predictor::PairingPolicy::Fifo,
                              predictor::PairingPolicy::Greedy,
                              predictor::PairingPolicy::Exhaustive}) {
        const auto schedule = scheduler.schedule(jobs, policy);
        double total = 0.0;
        for (const auto& bag : schedule.bags) {
            // The one-row prediction of the canonical bag.
            const predictor::BagSpec spec = bag.spec.canonical();
            EXPECT_EQ(bag.predictedSeconds,
                      model.predict(collector.appFeatures(spec.a),
                                    collector.appFeatures(spec.b),
                                    collector.measureFairness(spec)));
            total += bag.predictedSeconds;
        }
        if (schedule.leftover)
            total += collector.appFeatures(*schedule.leftover).gpuTime;
        EXPECT_EQ(schedule.predictedTotalSeconds, total);
    }
}

}  // namespace
