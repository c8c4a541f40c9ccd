/**
 * @file
 * The artifact-cache microbench: cold-compute vs. warm-load cost for
 * every cached artifact class. The headline pair is the 91-run
 * campaign — computed from scratch against an empty cache, then served
 * from the single campaign record by a fresh collector — plus the
 * per-blob serialize/parse costs for traces and trained tree models.
 * Every number lands in the metrics sidecar (bench.cache.* gauges) so
 * the cache's perf trajectory is measured, not asserted.
 *
 * Flags:
 *   --iters=<n>  scale all repetition counts (default 200; the
 *                bench_micro_cache_smoke ctest entry passes a tiny
 *                value so the whole path is compile- and run-checked
 *                in tier 1).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <unistd.h>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "cache/artifact_cache.h"
#include "common/parse.h"
#include "common/table.h"
#include "isa/trace_binary.h"
#include "ml/decision_tree.h"
#include "ml/model_binary.h"
#include "predictor/data_collection.h"
#include "vision/registry.h"

using namespace mapp;

namespace {

/**
 * Time @p reps calls of @p body, splitting them into slices and
 * scaling the fastest slice to the full rep count (same noise-
 * rejecting minimum estimator as the inference microbench).
 */
double
secondsFor(const std::function<void()>& body, long reps)
{
    constexpr long kSlices = 15;
    const long perSlice = std::max(1L, reps / kSlices);
    double best = 0.0;
    for (long done = 0; done < reps; done += perSlice) {
        const long n = std::min(perSlice, reps - done);
        const auto t0 = std::chrono::steady_clock::now();
        for (long r = 0; r < n; ++r)
            body();
        const auto t1 = std::chrono::steady_clock::now();
        const double perRep =
            std::chrono::duration<double>(t1 - t0).count() /
            static_cast<double>(n);
        if (best == 0.0 || perRep < best)
            best = perRep;
    }
    return best * static_cast<double>(reps);
}

void
setGauge(const std::string& key, double value)
{
    obs::defaultRegistry().gauge(key).set(value);
}

/** One-shot wall time of @p body in seconds. */
double
onceSeconds(const std::function<void()>& body)
{
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int
main(int argc, char** argv)
{
    long iters = 200;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--iters=", 0) == 0) {
            const auto v = parseBoundedInt(
                arg.substr(std::string("--iters=").size()), 1,
                1 << 24);
            if (!v) {
                std::fprintf(stderr, "error: bad --iters: %s\n",
                             v.error().message().c_str());
                return 1;
            }
            iters = v.value();
        } else {
            std::fprintf(stderr, "error: unknown flag '%s'\n",
                         arg.c_str());
            return 1;
        }
    }

    bench::printSystemHeader(
        "Artifact-cache microbench - cold compute vs. warm load");

    // Point the process-wide cache at a throwaway directory so this
    // bench never reads (or pollutes) a real ~/.cache/mapp.
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() /
        ("mapp_bench_cache_" + std::to_string(::getpid()));
    fs::remove_all(root);
    auto& cache = cache::defaultArtifactCache();
    cache.setDirectory(root.string());

    // --- campaign: cold end-to-end collection vs. warm record load ---
    const auto campaign = predictor::DataCollector::campaign91();
    std::vector<predictor::DataPoint> points;
    const double campaignCold = onceSeconds([&] {
        predictor::DataCollector cold;
        points = cold.collectAll(campaign);
    });
    const long warmReps = std::max(1L, iters / 20);
    const double campaignWarm =
        secondsFor(
            [&] {
                predictor::DataCollector warm;
                points = warm.collectAll(campaign);
            },
            warmReps) /
        static_cast<double>(warmReps);

    // --- trace: binary serialize / parse of a profiled workload ---
    const auto& trace =
        vision::cachedTrace(vision::BenchmarkId::Sift, 40);
    const std::string traceBlob = isa::traceToBinary(trace);
    const double traceSerialize = secondsFor(
        [&] { (void)isa::traceToBinary(trace); }, iters);
    const double traceParse = secondsFor(
        [&] { (void)isa::traceFromBinary(traceBlob, "bench"); },
        iters);

    // --- model: tree fit vs. binary reload of the fitted tree ---
    const ml::Dataset data = predictor::toDataset(points);
    ml::DecisionTreeParams treeParams;
    ml::DecisionTreeRegressor tree(treeParams);
    const double modelFit = secondsFor(
        [&] {
            ml::DecisionTreeRegressor t(treeParams);
            t.fit(data);
        },
        std::max(1L, iters / 10));
    tree.fit(data);
    const std::string modelBlob = ml::treeToBinary(tree);
    const double modelLoad = secondsFor(
        [&] { (void)ml::treeFromBinary(modelBlob, "bench"); }, iters);

    const auto perRepUs = [](double seconds, long reps) {
        return 1e6 * seconds / static_cast<double>(reps);
    };
    struct Line
    {
        const char* name;
        double coldUs;
        double warmUs;
        const char* gauge;
    };
    const Line lines[] = {
        {"campaign(91) collect vs record load", campaignCold * 1e6,
         campaignWarm * 1e6, "campaign"},
        {"trace serialize vs parse", perRepUs(traceSerialize, iters),
         perRepUs(traceParse, iters), "trace"},
        {"tree fit vs binary reload",
         perRepUs(modelFit, std::max(1L, iters / 10)),
         perRepUs(modelLoad, iters), "model"},
    };

    TextTable table("artifact cache: cold compute vs. warm load");
    table.setHeader({"path", "cold us", "warm us", "speedup"});
    for (const auto& line : lines) {
        const double speedup =
            line.warmUs > 0.0 ? line.coldUs / line.warmUs : 0.0;
        table.addRow({line.name, formatDouble(line.coldUs, 1),
                      formatDouble(line.warmUs, 1),
                      formatDouble(speedup, 1) + "x"});
        const std::string prefix =
            std::string("bench.cache.") + line.gauge;
        setGauge(prefix + ".cold_us", line.coldUs);
        setGauge(prefix + ".warm_us", line.warmUs);
        setGauge(prefix + ".speedup", speedup);
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nblob sizes: trace %zu B, model %zu B\n",
                traceBlob.size(), modelBlob.size());
    setGauge("bench.cache.trace.blob_bytes",
             static_cast<double>(traceBlob.size()));
    setGauge("bench.cache.model.blob_bytes",
             static_cast<double>(modelBlob.size()));

    cache.setDirectory("");
    fs::remove_all(root);
    return 0;
}
