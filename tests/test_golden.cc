/**
 * @file
 * Golden pin of the end-to-end output: the 45 profiled (benchmark,
 * batch) traces byte for byte, the paper's 91-bag campaign dataset
 * (ml::hashDataset), the per-benchmark LOOCV errors (as the printed
 * table and as exact doubles), the trained tree's serialized bytes and
 * a panel of predict/explain outputs must stay bit-identical across
 * refactors. ctest runs this binary at one lane and at four
 * (MAPP_THREADS=1 / =4, label `golden`), with the persistent cache
 * disabled; one test additionally routes the campaign through a temp
 * artifact cache, cold (compute + store) then warm (a fresh collector
 * loading the stored records).
 *
 * A change that moves these values on purpose updates the pins here
 * (and perfbench/run.py's copies) and records the LOOCV delta.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>
#include <unistd.h>

#include "cache/artifact_cache.h"
#include "cache/hash.h"
#include "common/parallel.h"
#include "isa/trace_binary.h"
#include "ml/dataset_binary.h"
#include "ml/model_binary.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "predictor/data_collection.h"
#include "predictor/predictor.h"
#include "vision/registry.h"

namespace {

using namespace mapp;

constexpr const char* kCampaignHash = "bd017af8c777bf72";

/** Digest of isa::traceToBinary over all 45 (benchmark, batch) traces. */
constexpr const char* kTracesHash = "6e5af6a9614c4553";

constexpr const char* kLoocvTable =
    "FAST       10.60%  (16 points)\n"
    "HoG        12.26%  (15 points)\n"
    "KNN        15.21%  (15 points)\n"
    "OBJREC     19.97%  (16 points)\n"
    "ORB        32.30%  (15 points)\n"
    "SIFT       27.72%  (15 points)\n"
    "SURF       22.87%  (15 points)\n"
    "SVM        13.46%  (15 points)\n"
    "FACEDET    11.78%  (15 points)\n"
    "mean       18.46%\n";

/** The same LOOCV errors as IEEE-754 bit patterns. */
constexpr const char* kLoocvBits =
    "FAST     40253129dff98ccd\n"
    "HoG      402884f54f8a019c\n"
    "KNN      402e6bd022544960\n"
    "OBJREC   4033f89654d6675e\n"
    "ORB      404026f7bd104061\n"
    "SIFT     403bb7ccf0617f27\n"
    "SURF     4036dd8311432e8d\n"
    "SVM      402ae8fb62fa56b5\n"
    "FACEDET  4027907774d7a331\n"
    "mean     403276645261d52f\n";

/** Digest of ml::treeToBinary for the tree trained on the campaign. */
constexpr const char* kTreeBytesHash = "e55a41e2fbe03317";

/**
 * predict() and explain() on every tenth campaign bag: index, then
 * the bits of predict, explain's predictedSeconds and its
 * uncertaintySeconds.
 */
constexpr const char* kPredictPanel =
    "0 3f60b66299443c86 3f60b66299443c86 3f10b8036838c9e4\n"
    "10 3f60b66299443c86 3f60b66299443c86 3f10b8036838c9e4\n"
    "20 3f710087b2d6d90b 3f710087b2d6d90b 3f20be4f143adae4\n"
    "30 3f839ca2eefd8a20 3f839ca2eefd8a20 3f2bb4a6e588dae4\n"
    "40 3f6dfa44f512a1e1 3f6dfa44f512a1e1 3f15c2cfc4f00318\n"
    "50 3f7f21ad5c8567f0 3f7f21ad5c8567f0 3ecb2113ee61cf48\n"
    "60 3f80e7aa55cb4714 3f80e7aa55cb4714 3edae93c4406eb61\n"
    "70 3f80f8e030df2781 3f80f8e030df2781 3ef8754e45409c39\n"
    "80 3f6cb7e7b4810131 3f6cb7e7b4810131 3ef6f7f180274625\n"
    "90 3fa0edd30883ab55 3fa0edd30883ab55 3f6484def039e9c3\n";

/** Digest of the panel's explain() path summaries. */
constexpr const char* kExplainPathsHash = "7f9b681058c0c0a9";

/** Digest of predictDataset over all 91 bags (the batched walk). */
constexpr const char* kPredictDatasetHash = "023d091a8b2c14f5";

/** Digest of a 50-tree forest's predict(Dataset) over the raw campaign. */
constexpr const char* kForestBatchHash = "ee4c59c8e442c675";

/** A double's bit pattern as 16 hex digits: the pin is identity. */
std::string
hexBits(double v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      std::bit_cast<std::uint64_t>(v)));
    return buf;
}

std::string
hashDoubles(std::span<const double> values)
{
    cache::Hasher h;
    h.add(values);
    return h.hex();
}

void
expectGolden(const std::vector<predictor::DataPoint>& points)
{
    const ml::Dataset raw = predictor::toDataset(points);
    cache::Hasher h;
    ml::hashDataset(h, raw);
    EXPECT_EQ(h.hex(), kCampaignHash);

    std::vector<std::string> names;
    for (auto id : vision::kAllBenchmarks)
        names.push_back(vision::benchmarkName(id));
    const auto cv =
        predictor::MultiAppPredictor::looBenchmarkCv(raw, {}, names);
    // The table as `mapp_cli loocv` prints it, and the exact doubles.
    std::string table;
    std::string bits;
    char line[96];
    for (const auto& fold : cv.folds) {
        std::snprintf(line, sizeof line, "%-8s %7.2f%%  (%zu points)\n",
                      fold.label.c_str(), fold.meanRelativeError,
                      fold.testPoints);
        table += line;
        std::snprintf(line, sizeof line, "%-8s %s\n", fold.label.c_str(),
                      hexBits(fold.meanRelativeError).c_str());
        bits += line;
    }
    std::snprintf(line, sizeof line, "mean     %7.2f%%\n",
                  cv.meanRelativeError());
    table += line;
    std::snprintf(line, sizeof line, "%-8s %s\n", "mean",
                  hexBits(cv.meanRelativeError()).c_str());
    bits += line;
    EXPECT_EQ(table, kLoocvTable);
    EXPECT_EQ(bits, kLoocvBits);
}

std::vector<predictor::DataPoint>
collectCampaign()
{
    predictor::DataCollector collector;
    return collector.collectAll(predictor::DataCollector::campaign91());
}

TEST(Golden, CampaignHashAndLoocvTable)
{
    RecordProperty("lanes", parallel::maxThreads());
    expectGolden(collectCampaign());
}

TEST(Golden, PredictExplainAndModelBytes)
{
    const auto points = collectCampaign();
    const ml::Dataset raw = predictor::toDataset(points);
    predictor::MultiAppPredictor model;
    model.train(raw);

    cache::Hasher tree;
    tree.add(ml::treeToBinary(model.tree()));
    EXPECT_EQ(tree.hex(), kTreeBytesHash);

    std::string panel;
    cache::Hasher paths;
    for (std::size_t i = 0; i < points.size(); i += 10) {
        const auto e = model.explain(points[i]);
        panel += std::to_string(i) + " " +
                 hexBits(model.predict(points[i])) + " " +
                 hexBits(e.predictedSeconds) + " " +
                 hexBits(e.uncertaintySeconds) + "\n";
        paths.add(e.pathSummary);
    }
    EXPECT_EQ(panel, kPredictPanel);
    EXPECT_EQ(paths.hex(), kExplainPathsHash);
    EXPECT_EQ(hashDoubles(model.predictDataset(raw)), kPredictDatasetHash);

    ml::RandomForestParams fp;
    fp.numTrees = 50;
    ml::RandomForestRegressor forest(fp);
    forest.fit(raw);
    EXPECT_EQ(hashDoubles(forest.predict(raw)), kForestBatchHash);
}

TEST(Golden, CampaignTracesAreByteIdentical)
{
    std::vector<std::pair<vision::BenchmarkId, int>> units;
    for (auto id : vision::kAllBenchmarks)
        for (int batch : vision::kBatchSizes)
            units.emplace_back(id, batch);
    std::vector<std::string> blobs(units.size());
    parallel::parallelFor(units.size(), [&](std::size_t i) {
        blobs[i] = isa::traceToBinary(
            vision::cachedTrace(units[i].first, units[i].second));
    });
    cache::Hasher h;
    for (const auto& blob : blobs)
        h.add(blob);
    EXPECT_EQ(h.hex(), kTracesHash);
}

TEST(Golden, ColdThenWarmThroughTempCache)
{
    namespace fs = std::filesystem;
    // Per-process: ctest runs the one- and four-lane binaries at once.
    const std::string dir = ::testing::TempDir() + "mapp_golden_cache_" +
                            std::to_string(::getpid());
    fs::remove_all(dir);
    auto& artifacts = cache::defaultArtifactCache();
    artifacts.setDirectory(dir);

    const auto cold = collectCampaign();
    ASSERT_TRUE(fs::exists(dir + "/campaign"));

    auto& hits = obs::defaultRegistry().counter("cache.hits");
    const std::uint64_t hits0 = hits.value();
    const auto warm = collectCampaign();
    EXPECT_EQ(hits.value(), hits0 + 1);  // the one campaign record

    artifacts.setDirectory("");
    fs::remove_all(dir);
    expectGolden(cold);
    expectGolden(warm);
}

}  // namespace
