/**
 * @file
 * Golden pin of the end-to-end output: the 45 profiled (benchmark,
 * batch) traces byte for byte, the paper's 91-bag campaign dataset
 * (ml::hashDataset) and the per-benchmark LOOCV table must stay
 * bit-identical across refactors. ctest runs this binary at one lane
 * and at four (MAPP_THREADS=1 / =4, label `golden`), with the
 * persistent cache disabled; one test additionally routes the campaign
 * through a temp artifact cache, cold (compute + store) then warm (a
 * fresh collector loading the stored records).
 *
 * A change that moves these values on purpose updates the pins here
 * (and perfbench/run.py's copies) and records the LOOCV delta.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>
#include <unistd.h>

#include "cache/artifact_cache.h"
#include "cache/hash.h"
#include "common/parallel.h"
#include "isa/trace_binary.h"
#include "ml/dataset_binary.h"
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

/** The LOOCV table as `mapp_cli loocv` prints it. */
std::string
loocvTable(const ml::Dataset& raw)
{
    std::vector<std::string> names;
    for (auto id : vision::kAllBenchmarks)
        names.push_back(vision::benchmarkName(id));
    const auto cv =
        predictor::MultiAppPredictor::looBenchmarkCv(raw, {}, names);
    std::string out;
    char line[96];
    for (const auto& fold : cv.folds) {
        std::snprintf(line, sizeof line, "%-8s %7.2f%%  (%zu points)\n",
                      fold.label.c_str(), fold.meanRelativeError,
                      fold.testPoints);
        out += line;
    }
    std::snprintf(line, sizeof line, "mean     %7.2f%%\n",
                  cv.meanRelativeError());
    return out + line;
}

void
expectGolden(const std::vector<predictor::DataPoint>& points)
{
    const ml::Dataset raw = predictor::toDataset(points);
    cache::Hasher h;
    ml::hashDataset(h, raw);
    EXPECT_EQ(h.hex(), kCampaignHash);
    EXPECT_EQ(loocvTable(raw), kLoocvTable);
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
