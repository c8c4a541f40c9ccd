/** @file Compiled-inference equivalence suite: the SoA engines must be
 * bit-identical to the node-walk oracle — fuzzed over random
 * trees/forests and probe vectors (including degenerate single-leaf
 * trees, probes placed exactly on split thresholds and NaN features),
 * across every batch length from 1 to 700 rows, at several thread
 * counts, and on the real campaign dataset. */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/log.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "ml/compiled_tree.h"
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

/**
 * Probe vectors for a fitted tree: random points plus, for every
 * internal node, a point sitting exactly ON the node's threshold in
 * the node's feature (the <= boundary both engines must route the
 * same way).
 */
std::vector<std::vector<double>>
probesFor(const ml::DecisionTreeRegressor& tree, Rng& rng,
          std::size_t features, int random_probes)
{
    std::vector<std::vector<double>> probes;
    for (int p = 0; p < random_probes; ++p) {
        std::vector<double> x;
        for (std::size_t f = 0; f < features; ++f)
            x.push_back(rng.uniform(-12.0, 12.0));
        probes.push_back(std::move(x));
    }
    for (std::size_t i = 0; i < tree.nodeCount(); ++i) {
        const auto v = tree.nodeView(i);
        if (v.leaf)
            continue;
        std::vector<double> x;
        for (std::size_t f = 0; f < features; ++f)
            x.push_back(rng.uniform(-12.0, 12.0));
        x[static_cast<std::size_t>(v.feature)] = v.threshold;
        probes.push_back(std::move(x));
    }
    return probes;
}

std::vector<double>
flatten(const std::vector<std::vector<double>>& rows)
{
    std::vector<double> flat;
    for (const auto& row : rows)
        flat.insert(flat.end(), row.begin(), row.end());
    return flat;
}

/** Longest batch the fuzz sweeps: past two 256-row forest chunks. */
constexpr std::size_t kMaxBatchRows = 700;

/**
 * A row-major probe batch of @p rows rows: random points, each with
 * one feature set exactly ON the threshold of a random node of a
 * random tree in @p trees (the <= boundary), and a NaN feature in
 * every 13th row (NaN fails <=, so it must route right).
 */
std::vector<double>
probeBatch(Rng& rng, std::span<const ml::DecisionTreeRegressor> trees,
           std::size_t features, std::size_t rows)
{
    std::vector<double> flat;
    flat.reserve(rows * features);
    for (std::size_t i = 0; i < rows * features; ++i)
        flat.push_back(rng.uniform(-12.0, 12.0));
    for (std::size_t r = 0; r < rows; ++r) {
        const auto& tree = trees[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(trees.size()) - 1))];
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

/**
 * predictBatch over the first n rows of @p flat must equal @p oracle
 * bit for bit, for every n in @p lengths. Lengths 1..700 cover every
 * 32/16/8/4/2/1 walk block, the backward-overlapping partial block
 * and multi-chunk forest batches.
 */
template <typename Engine>
void
expectBatchesMatch(const Engine& compiled, const std::vector<double>& flat,
                   std::size_t features, const std::vector<double>& oracle,
                   std::span<const std::size_t> lengths)
{
    std::vector<double> out;
    for (std::size_t n : lengths) {
        out.assign(n, 0.0);
        compiled.predictBatch(std::span(flat).first(n * features),
                              features, out);
        ASSERT_EQ(0, std::memcmp(out.data(), oracle.data(),
                                 n * sizeof(double)))
            << "batch of " << n << " rows";
    }
}

/** Every length 1..kMaxBatchRows when @p sweep, else one random one. */
std::vector<std::size_t>
batchLengths(Rng& rng, bool sweep)
{
    std::vector<std::size_t> lengths;
    if (!sweep)
        return {static_cast<std::size_t>(
            rng.uniformInt(1, static_cast<int>(kMaxBatchRows)))};
    for (std::size_t n = 1; n <= kMaxBatchRows; ++n)
        lengths.push_back(n);
    return lengths;
}

TEST(CompiledTree, FuzzEquivalenceWithOracle)
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
        const ml::CompiledTree compiled(tree);
        ASSERT_TRUE(compiled.compiled());
        EXPECT_EQ(compiled.nodeCount(), tree.nodeCount());

        const auto probes = probesFor(tree, rng, features, 16);
        std::vector<double> batch(probes.size());
        compiled.predictBatch(flatten(probes), features, batch);
        for (std::size_t p = 0; p < probes.size(); ++p) {
            const double oracle = tree.predict(probes[p]);
            EXPECT_EQ(oracle, compiled.predict(probes[p]));
            EXPECT_EQ(oracle, batch[p]);
        }

        const auto flatProbes = probeBatch(
            rng, std::span(&tree, 1), features, kMaxBatchRows);
        std::vector<double> oracle(kMaxBatchRows);
        for (std::size_t r = 0; r < kMaxBatchRows; ++r) {
            const auto x =
                std::span(flatProbes).subspan(r * features, features);
            oracle[r] = tree.predict(x);
            ASSERT_EQ(oracle[r], compiled.predict(x)) << "row " << r;
            ASSERT_EQ(tree.nodeView(static_cast<std::size_t>(
                                        compiled.predictLeaf(x)))
                          .value,
                      oracle[r])
                << "row " << r;
        }
        expectBatchesMatch(compiled, flatProbes, features, oracle,
                           batchLengths(rng, trial % 4 == 0));
    }
}

TEST(CompiledTree, SingleLeafTree)
{
    Rng rng(7);
    const auto d = randomDataset(rng, 5, 3, /*flat=*/true);
    ml::DecisionTreeRegressor tree;
    tree.fit(d);
    ASSERT_EQ(tree.nodeCount(), 1u);

    const ml::CompiledTree compiled(tree);
    EXPECT_EQ(compiled.steps(), 0);
    const std::vector<double> x{0.0, 1.0, 2.0};
    EXPECT_EQ(tree.predict(x), compiled.predict(x));
    std::vector<double> out(2);
    const std::vector<double> flat{0.0, 1.0, 2.0, 3.0, 4.0, 5.0};
    compiled.predictBatch(flat, 3, out);
    EXPECT_EQ(out[0], tree.predict(x));
    EXPECT_EQ(out[1], out[0]);
}

TEST(CompiledTree, RejectsUntrainedAndBadShapes)
{
    EXPECT_THROW(ml::CompiledTree{ml::DecisionTreeRegressor{}},
                 FatalError);

    const ml::CompiledTree empty;
    EXPECT_FALSE(empty.compiled());
    EXPECT_THROW(empty.predict(std::vector<double>{1.0}), FatalError);

    Rng rng(11);
    const auto d = randomDataset(rng, 20, 2);
    ml::DecisionTreeRegressor tree;
    tree.fit(d);
    const ml::CompiledTree compiled(tree);
    std::vector<double> out(3);
    const std::vector<double> flat{1.0, 2.0, 3.0, 4.0};  // not 3 rows x 2
    EXPECT_THROW(compiled.predictBatch(flat, 2, out), FatalError);
}

TEST(CompiledForest, FuzzEquivalenceWithOracle)
{
    Rng rng(424242);
    for (int trial = 0; trial < 12; ++trial) {
        const auto rows =
            static_cast<std::size_t>(rng.uniformInt(6, 60));
        const auto features =
            static_cast<std::size_t>(rng.uniformInt(1, 6));
        const auto d = randomDataset(rng, rows, features);

        ml::RandomForestParams params;
        params.numTrees = static_cast<int>(rng.uniformInt(1, 12));
        params.tree.maxDepth = static_cast<int>(rng.uniformInt(1, 7));
        params.seed = 1000 + static_cast<std::uint64_t>(trial);
        ml::RandomForestRegressor forest(params);
        forest.fit(d);
        const ml::CompiledForest compiled(forest);
        EXPECT_EQ(compiled.treeCount(), forest.treeCount());

        std::vector<std::vector<double>> probes;
        for (int p = 0; p < 24; ++p) {
            std::vector<double> x;
            for (std::size_t f = 0; f < features; ++f)
                x.push_back(rng.uniform(-12.0, 12.0));
            probes.push_back(std::move(x));
        }
        std::vector<double> batch(probes.size());
        compiled.predictBatch(flatten(probes), features, batch);
        for (std::size_t p = 0; p < probes.size(); ++p) {
            const double oracle = forest.predict(probes[p]);
            EXPECT_EQ(oracle, compiled.predict(probes[p]));
            EXPECT_EQ(oracle, batch[p]);
        }
        // The dataset overloads agree with the oracle too.
        EXPECT_EQ(forest.predict(d), compiled.predict(d));

        const auto flatProbes =
            probeBatch(rng, forest.trees(), features, kMaxBatchRows);
        std::vector<double> oracle(kMaxBatchRows);
        std::vector<double> votes;
        for (std::size_t r = 0; r < kMaxBatchRows; ++r) {
            const auto x =
                std::span(flatProbes).subspan(r * features, features);
            oracle[r] = forest.predict(x);
            ASSERT_EQ(oracle[r], compiled.predict(x)) << "row " << r;
            ASSERT_EQ(oracle[r], compiled.predictVotes(x, votes))
                << "row " << r;
        }
        expectBatchesMatch(compiled, flatProbes, features, oracle,
                           batchLengths(rng, trial % 4 == 0));
    }
}

TEST(CompiledForest, BatchMatchesSingleAcrossThreadCounts)
{
    Rng rng(55);
    // Enough rows to span several parallel chunks (chunk = 256 rows).
    const auto d = randomDataset(rng, 1200, 5);
    ml::RandomForestParams params;
    params.numTrees = 10;
    ml::RandomForestRegressor forest(params);
    forest.fit(d);
    const ml::CompiledForest compiled(forest);
    const ml::CompiledTree compiledTree(forest.trees().front());

    std::vector<double> single(d.size());
    std::vector<double> singleTree(d.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
        single[i] = compiled.predict(d.row(i));
        singleTree[i] = compiledTree.predict(d.row(i));
    }

    const auto flat = d.toRowMajor();
    for (int threads : {1, 2, parallel::maxThreads()}) {
        parallel::setMaxThreads(threads);
        std::vector<double> batch(d.size());
        compiled.predictBatch(flat, d.numFeatures(), batch);
        EXPECT_EQ(batch, single) << "forest @ threads=" << threads;

        std::vector<double> treeBatch(d.size());
        compiledTree.predictBatch(flat, d.numFeatures(), treeBatch);
        EXPECT_EQ(treeBatch, singleTree)
            << "tree @ threads=" << threads;
    }
    parallel::setMaxThreads(0);  // restore the environment default
}

/** The real campaign: compiled engines must reproduce the node walk
 * bit for bit on every measured data point. */
TEST(CompiledInference, CampaignDatasetPinned)
{
    predictor::DataCollector collector;
    const auto points = collector.collectAll(
        predictor::DataCollector::campaign91());
    const auto raw = predictor::toDataset(points);

    ml::DecisionTreeRegressor tree;
    tree.fit(raw);
    const ml::CompiledTree compiledTree(tree);
    EXPECT_EQ(tree.predict(raw), compiledTree.predict(raw));

    ml::RandomForestParams fp;
    fp.numTrees = 50;
    ml::RandomForestRegressor forest(fp);
    forest.fit(raw);
    const ml::CompiledForest compiledForest(forest);
    EXPECT_EQ(forest.predict(raw), compiledForest.predict(raw));

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

/** Batched scheduler scoring must pick the same pairings as per-bag
 * prediction. */
TEST(CompiledInference, SchedulerBatchedScoringMatchesPredictBag)
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
            EXPECT_EQ(bag.predictedSeconds,
                      scheduler.predictBag(bag.spec));
            total += bag.predictedSeconds;
        }
        if (schedule.leftover)
            total += collector.appFeatures(*schedule.leftover).gpuTime;
        EXPECT_EQ(schedule.predictedTotalSeconds, total);
    }
}

}  // namespace
