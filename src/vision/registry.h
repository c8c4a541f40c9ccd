/**
 * @file
 * The benchmark registry: the paper's nine vision workloads (Table II)
 * behind one enum, plus the profiling batch runner that produces
 * WorkloadTraces (the analogue of running PIN+MICA over a benchmark on
 * one input batch) and a process-wide memoized trace cache.
 */

#ifndef MAPP_VISION_REGISTRY_H
#define MAPP_VISION_REGISTRY_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/trace.h"
#include "vision/image.h"

namespace mapp::vision {

/** The nine benchmarks of Table II. */
enum class BenchmarkId : int {
    Fast = 0,
    Hog,
    Knn,
    ObjRec,
    Orb,
    Sift,
    Surf,
    Svm,
    FaceDet,
    NumBenchmarks
};

/** Number of benchmarks. */
inline constexpr int kNumBenchmarks =
    static_cast<int>(BenchmarkId::NumBenchmarks);

/** All benchmarks in the paper's x-axis order. */
inline constexpr std::array<BenchmarkId, 9> kAllBenchmarks = {
    BenchmarkId::Fast, BenchmarkId::Hog,  BenchmarkId::Knn,
    BenchmarkId::ObjRec, BenchmarkId::Orb, BenchmarkId::Sift,
    BenchmarkId::Surf, BenchmarkId::Svm,  BenchmarkId::FaceDet,
};

/** The paper's batch sizes (Section V-B). */
inline constexpr std::array<int, 5> kBatchSizes = {20, 40, 80, 160, 320};

/** Display name matching the paper's figures (e.g. "OBJREC"). */
std::string benchmarkName(BenchmarkId id);

/** Parse a display name back to the id. @throws FatalError if unknown. */
BenchmarkId benchmarkFromName(const std::string& name);

/** One-line description from Table II. */
std::string benchmarkDescription(BenchmarkId id);

/** Side length of the synthetic input images. */
inline constexpr int kImageSize = 192;

/**
 * Generate the input batch a benchmark would be fed: face-bearing scenes
 * for FACEDET, cluttered scenes otherwise. Deterministic in (id, n,
 * seed).
 */
std::vector<Image> generateBatch(BenchmarkId id, int n, std::uint64_t seed);

/**
 * Execute one benchmark on a batch (no profiling); returns the
 * benchmark's checksum. Useful for functional tests.
 */
std::size_t runBenchmark(BenchmarkId id, const std::vector<Image>& batch);

/**
 * Profile one benchmark at the given batch size: run it under a profiler
 * session and return the trace.
 *
 * Per-image benchmarks are sampled on a few distinct images and the
 * trace is scaled to the full batch (their work is linear per image);
 * the training-style benchmarks (SVM, KNN, OBJREC) always run the full
 * batch since their cost is not linear in it.
 */
isa::WorkloadTrace profileWorkload(BenchmarkId id, int batch_size,
                                   std::uint64_t seed = 0);

/**
 * Memoized profileWorkload: a process-wide cache::Memo profiles each
 * (benchmark, batch size) at most once, even when pool workers race on
 * it, and counts under `registry.trace_cache_{hits,misses}`. Its
 * compute goes through the artifact cache's getOrCompute, so later
 * processes load the binary trace instead of re-profiling (a corrupt
 * entry is re-profiled and rewritten); that layer reports under
 * `cache.*`. Each profiling run is one `vision-profile` pipeline phase
 * (phase tree and trace). The returned reference stays valid for the
 * process lifetime.
 */
const isa::WorkloadTrace& cachedTrace(BenchmarkId id, int batch_size);

/** Scale a trace's counts/traffic/work items by an integer factor. */
isa::WorkloadTrace scaleTrace(const isa::WorkloadTrace& trace,
                              std::uint64_t factor);

}  // namespace mapp::vision

#endif  // MAPP_VISION_REGISTRY_H
