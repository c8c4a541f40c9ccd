/**
 * @file
 * Tests for the parallel execution layer: ThreadPool lifecycle,
 * parallelFor/parallelMap correctness and exception propagation, and —
 * the layer's hard requirement — bit-identical serial-vs-parallel
 * results for campaign collection, LOOCV fold errors, the LOOCV
 * quality telemetry and random-forest predictions.
 */

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "ml/decision_tree.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "predictor/data_collection.h"
#include "predictor/features.h"
#include "predictor/predictor.h"
#include "predictor/quality.h"

using namespace mapp;

namespace {

/** Force a lane budget for the duration of a scope. */
struct ThreadScope
{
    explicit ThreadScope(int threads)
    {
        parallel::setMaxThreads(threads);
    }
    ~ThreadScope() { parallel::setMaxThreads(0); }
};

}  // namespace

TEST(ThreadPool, RunsSubmittedTasksAndShutsDownCleanly)
{
    std::atomic<int> ran{0};
    {
        parallel::ThreadPool pool(3);
        EXPECT_EQ(pool.workerCount(), 3);
        for (int i = 0; i < 50; ++i)
            pool.submit([&ran] { ran.fetch_add(1); });
        // Destructor drains the queue and joins: all 50 must have run.
    }
    EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, ZeroWorkersRunsInline)
{
    parallel::ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 0);
    int ran = 0;
    pool.submit([&ran] { ++ran; });
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(pool.tasksRun(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    const ThreadScope scope(4);
    std::vector<int> hits(1000, 0);
    parallel::parallelFor(hits.size(),
                          [&](std::size_t i) { hits[i] += 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ParallelFor, EmptyAndSingleIterationWork)
{
    const ThreadScope scope(4);
    int calls = 0;
    parallel::parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallel::parallelFor(1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesBodyExceptions)
{
    const ThreadScope scope(4);
    EXPECT_THROW(
        parallel::parallelFor(64,
                              [&](std::size_t i) {
                                  if (i == 7)
                                      throw std::runtime_error("boom");
                              }),
        std::runtime_error);
}

TEST(ParallelFor, SerialFallbackPropagatesExceptionsToo)
{
    const ThreadScope scope(1);
    EXPECT_THROW(parallel::parallelFor(
                     8,
                     [&](std::size_t i) {
                         if (i == 3)
                             throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
}

TEST(ParallelFor, EveryIterationRunsBeforeTheFirstThrowIsRethrown)
{
    // The inline path (one lane, or n == 1) must keep the pooled
    // path's contract: the remaining iterations still run.
    for (const int threads : {1, 4}) {
        const ThreadScope scope(threads);
        for (const std::size_t n : {std::size_t{1}, std::size_t{64}}) {
            std::atomic<std::size_t> ran{0};
            EXPECT_THROW(parallel::parallelFor(
                             n,
                             [&](std::size_t i) {
                                 ran.fetch_add(1);
                                 if (i % 2 == 0)
                                     throw std::runtime_error("even");
                             }),
                         std::runtime_error)
                << threads << " lanes, n = " << n;
            EXPECT_EQ(ran.load(), n) << threads << " lanes, n = " << n;
        }
    }
}

TEST(ParallelMap, PreservesOrdering)
{
    const ThreadScope scope(4);
    std::vector<int> in(257);
    std::iota(in.begin(), in.end(), 0);
    const auto out =
        parallel::parallelMap(in, [](int v) { return v * v; });
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i)
        EXPECT_EQ(out[i], in[i] * in[i]);
}

TEST(ParallelConfig, MaxThreadsOverrideWins)
{
    parallel::setMaxThreads(2);
    EXPECT_EQ(parallel::maxThreads(), 2);
    parallel::setMaxThreads(0);
    EXPECT_GE(parallel::maxThreads(), 1);
}

namespace {

/** The top-level phase named @p name, or nullptr. */
const obs::PhaseNode*
topLevelPhase(const obs::PhaseNode& root, const std::string& name)
{
    for (const auto& child : root.children)
        if (child.name == name)
            return &child;
    return nullptr;
}

/**
 * The phase path every pool worker holds between tasks: one task per
 * worker, each held at a barrier until all have started, so no worker
 * can run two of them.
 */
std::vector<std::string>
workerPhasePaths()
{
    auto& pool = parallel::globalPool();
    const auto workers = static_cast<std::size_t>(pool.workerCount());
    std::vector<std::string> paths(workers);
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t started = 0;
    std::size_t finished = 0;
    for (std::size_t w = 0; w < workers; ++w) {
        pool.submit([&, w] {
            std::unique_lock<std::mutex> lock(mutex);
            paths[w] = obs::currentPhasePath();
            ++started;
            cv.notify_all();
            cv.wait(lock, [&] { return started == workers; });
            ++finished;
            cv.notify_all();
        });
    }
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return finished == workers; });
    return paths;
}

}  // namespace

TEST(PhasePath, ParallelForBodiesNestUnderTheCallerAtAnyLaneCount)
{
    for (const int threads : {1, 4}) {
        const ThreadScope scope(threads);
        obs::defaultRegistry().reset();
        const std::string caller = "caller-" + std::to_string(threads);
        {
            const obs::ScopedPhase phase(caller);
            parallel::parallelFor(32, [](std::size_t) {
                const obs::ScopedPhase body("body");
                const obs::ScopedPhase inner("inner");
            });
            // A throwing body unwinds its phases on whichever lane
            // ran it; the caller's path survives the rethrow.
            const auto failing = [](std::size_t i) {
                const obs::ScopedPhase phase("failing");
                if (i == 7)
                    throw std::runtime_error("boom");
            };
            EXPECT_THROW(parallel::parallelFor(8, failing),
                         std::runtime_error);
            EXPECT_EQ(obs::currentPhasePath(), caller);
        }
        const auto tree =
            obs::phaseTree(obs::defaultRegistry().snapshot());
        EXPECT_EQ(topLevelPhase(tree, "body"), nullptr);
        EXPECT_EQ(topLevelPhase(tree, "failing"), nullptr);
        const auto* top = topLevelPhase(tree, caller);
        ASSERT_NE(top, nullptr) << caller;
        EXPECT_EQ(top->count, 1u);
        ASSERT_EQ(top->children.size(), 2u);
        EXPECT_EQ(top->children[0].name, "body");
        EXPECT_EQ(top->children[0].count, 32u);
        ASSERT_EQ(top->children[0].children.size(), 1u);
        EXPECT_EQ(top->children[0].children[0].name, "inner");
        EXPECT_EQ(top->children[0].children[0].count, 32u);
        EXPECT_EQ(top->children[1].name, "failing");
        EXPECT_EQ(top->children[1].count, 8u);

        // Back between tasks, every pool worker is at the top level.
        if (threads > 1) {
            for (const auto& path : workerPhasePaths())
                EXPECT_EQ(path, "");
        }
    }
}

namespace {

/** A small campaign spanning homogeneous and heterogeneous bags. */
std::vector<predictor::BagSpec>
miniCampaign()
{
    using vision::BenchmarkId;
    const predictor::BagMember fast{BenchmarkId::Fast, 20};
    const predictor::BagMember orb{BenchmarkId::Orb, 20};
    const predictor::BagMember hog{BenchmarkId::Hog, 40};
    return {
        {fast, fast}, {orb, orb}, {hog, hog},
        {fast, orb},  {fast, hog}, {orb, hog},
    };
}

ml::Dataset
collectMini(int threads)
{
    const ThreadScope scope(threads);
    predictor::DataCollector collector;
    return predictor::toDataset(collector.collectAll(miniCampaign()));
}

}  // namespace

TEST(SerialVsParallel, CampaignDatasetsAreBitIdentical)
{
    const ml::Dataset serial = collectMini(1);
    const ml::Dataset threaded = collectMini(4);

    ASSERT_EQ(serial.size(), threaded.size());
    ASSERT_EQ(serial.featureNames(), threaded.featureNames());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial.group(i), threaded.group(i)) << "row " << i;
        EXPECT_EQ(serial.target(i), threaded.target(i)) << "row " << i;
        ASSERT_EQ(serial.row(i).size(), threaded.row(i).size());
        for (std::size_t j = 0; j < serial.row(i).size(); ++j) {
            EXPECT_EQ(serial.row(i)[j], threaded.row(i)[j])
                << "row " << i << " col " << j;
        }
    }
}

TEST(SerialVsParallel, LoocvFoldErrorsAreBitIdentical)
{
    const ml::Dataset data = collectMini(1);
    const std::vector<std::string> benchmarks{"FAST", "ORB", "HoG"};

    parallel::setMaxThreads(1);
    const auto serial =
        predictor::MultiAppPredictor::looBenchmarkCv(data, {}, benchmarks);
    parallel::setMaxThreads(4);
    const auto threaded =
        predictor::MultiAppPredictor::looBenchmarkCv(data, {}, benchmarks);
    parallel::setMaxThreads(0);

    ASSERT_EQ(serial.folds.size(), threaded.folds.size());
    for (std::size_t f = 0; f < serial.folds.size(); ++f) {
        EXPECT_EQ(serial.folds[f].label, threaded.folds[f].label);
        EXPECT_EQ(serial.folds[f].testPoints,
                  threaded.folds[f].testPoints);
        EXPECT_EQ(serial.folds[f].meanRelativeError,
                  threaded.folds[f].meanRelativeError)
            << "fold " << serial.folds[f].label;
        EXPECT_EQ(serial.folds[f].mse, threaded.folds[f].mse);
    }
    EXPECT_EQ(serial.meanRelativeError(), threaded.meanRelativeError());
}

namespace {

/** What the quality monitor shows after one LOOCV run from a reset. */
struct LoocvTelemetry
{
    double mapePct = 0.0;
    std::uint64_t pairs = 0;
};

LoocvTelemetry
loocvTelemetry(const ml::Dataset& data,
               const std::vector<std::string>& benchmarks, int threads)
{
    const ThreadScope scope(threads);
    auto& registry = obs::defaultRegistry();
    auto& pairs = registry.counter("predictor.quality.pairs");
    predictor::ModelQualityMonitor::global().reset();
    const std::uint64_t pairs0 = pairs.value();
    predictor::MultiAppPredictor::looBenchmarkCv(data, {}, benchmarks);
    return {registry.gauge("predictor.quality.mape_pct").value(),
            pairs.value() - pairs0};
}

}  // namespace

TEST(SerialVsParallel, LoocvQualityTelemetryIsBitIdentical)
{
    // Sixteen synthetic benchmarks, one bag per pair: enough folds that
    // four lanes finish them in a varying order.
    std::vector<std::string> benchmarks;
    for (int b = 0; b < 16; ++b)
        benchmarks.push_back("B" + std::to_string(b));
    const auto names = predictor::bagFeatureNames();
    Rng rng(23);
    ml::Dataset data(names);
    for (std::size_t i = 0; i < benchmarks.size(); ++i)
        for (std::size_t j = i; j < benchmarks.size(); ++j) {
            std::vector<double> row(names.size());
            for (auto& x : row)
                x = rng.uniform(0.05, 1.0);
            data.addRow(row, rng.uniform(0.1, 2.0),
                        benchmarks[i] + "+" + benchmarks[j]);
        }

    const auto serial = loocvTelemetry(data, benchmarks, 1);
    EXPECT_GT(serial.pairs, 0u);
    for (int run = 0; run < 10; ++run) {
        const auto threaded = loocvTelemetry(data, benchmarks, 4);
        EXPECT_EQ(threaded.mapePct, serial.mapePct) << "run " << run;
        EXPECT_EQ(threaded.pairs, serial.pairs) << "run " << run;
    }
}

TEST(SerialVsParallel, ForestPredictionsAreBitIdentical)
{
    // Synthetic regression data: enough rows that trees bootstrap
    // distinct samples.
    Rng rng(17);
    ml::Dataset data({"x0", "x1"});
    for (int i = 0; i < 200; ++i) {
        const double x0 = rng.uniform(-1.0, 1.0);
        const double x1 = rng.uniform(-1.0, 1.0);
        data.addRow({x0, x1}, 3.0 * x0 - 2.0 * x1 + 0.1 * x0 * x1, "g");
    }

    ml::RandomForestParams params;
    params.numTrees = 16;
    params.seed = 99;

    parallel::setMaxThreads(1);
    ml::RandomForestRegressor serial(params);
    serial.fit(data);
    parallel::setMaxThreads(4);
    ml::RandomForestRegressor threaded(params);
    threaded.fit(data);
    parallel::setMaxThreads(0);

    ASSERT_EQ(serial.treeCount(), threaded.treeCount());
    const auto a = serial.predict(data);
    const auto b = threaded.predict(data);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << "row " << i;
}

TEST(PresortedSplit, MatchesNaiveSearchOnRandomData)
{
    // The presorted fit must grow exactly the tree the naive per-node
    // sort grew: validate invariants on data with heavy ties.
    Rng rng(5);
    ml::Dataset data({"a", "b", "c"});
    for (int i = 0; i < 150; ++i) {
        const double a = std::floor(rng.uniform(0.0, 4.0));
        const double b = rng.uniform(0.0, 1.0);
        const double c = std::floor(rng.uniform(0.0, 2.0));
        data.addRow({a, b, c}, a * 2.0 + (c > 0 ? 5.0 : 0.0) + b, "g");
    }
    ml::DecisionTreeRegressor tree;
    tree.fit(data);
    EXPECT_TRUE(tree.trained());
    EXPECT_GT(tree.nodeCount(), 1u);

    // Predictions at the training points recover the piecewise means:
    // in-sample MSE must be tiny for this nearly-separable target.
    const auto pred = tree.predict(data);
    double sse = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i)
        sse += (pred[i] - data.target(i)) * (pred[i] - data.target(i));
    EXPECT_LT(sse / static_cast<double>(data.size()), 0.2);
}
