/**
 * @file
 * google-benchmark microbenchmarks of the vision substrate: per-kernel
 * wall-clock throughput of the real algorithm implementations (these
 * time the host execution of the kernels themselves, not the simulated
 * GPU/CPU — useful for keeping the data-collection pipeline fast).
 */

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "vision/facedet.h"
#include "vision/fast.h"
#include "vision/hog.h"
#include "vision/image.h"
#include "vision/knn.h"
#include "vision/ops.h"
#include "vision/orb.h"
#include "vision/registry.h"
#include "vision/sift.h"
#include "vision/surf.h"
#include "vision/svm.h"

namespace {

using namespace mapp;
using namespace mapp::vision;

Image
benchScene(int size)
{
    Rng rng(42);
    return synth::scene(size, size, rng);
}

void
BM_GaussianBlur(benchmark::State& state)
{
    const Image img = benchScene(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(ops::gaussianBlur(img, 1.6f));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(img.pixels()));
}
BENCHMARK(BM_GaussianBlur)->Arg(96)->Arg(192);

void
BM_IntegralImage(benchmark::State& state)
{
    const Image img = benchScene(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(ops::integral(img));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(img.pixels()));
}
BENCHMARK(BM_IntegralImage)->Arg(96)->Arg(192);

void
BM_Sobel(benchmark::State& state)
{
    const Image img = benchScene(static_cast<int>(state.range(0)));
    Image gx, gy;
    for (auto _ : state) {
        ops::sobel(img, gx, gy);
        benchmark::DoNotOptimize(gx);
    }
}
BENCHMARK(BM_Sobel)->Arg(192);

void
BM_GradientPolar(benchmark::State& state)
{
    const Image img = benchScene(192);
    Image gx, gy, mag, orient;
    ops::sobel(img, gx, gy);
    for (auto _ : state) {
        ops::gradientPolar(gx, gy, mag, orient);
        benchmark::DoNotOptimize(orient);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(img.pixels()));
}
BENCHMARK(BM_GradientPolar);

/** All-pairs distances at the KNN@320 shape: 7600 queries x 400
 * references x 144 dimensions. */
void
BM_DistanceMatrix(benchmark::State& state)
{
    Rng rng(17);
    auto rows = [&](std::size_t n) {
        std::vector<Descriptor> out(n, Descriptor(144));
        for (auto& d : out)
            for (auto& v : d)
                v = static_cast<float>(rng.uniform(-60.0, 60.0));
        return out;
    };
    const auto queries = rows(7600);
    const auto refs = rows(400);
    for (auto _ : state)
        benchmark::DoNotOptimize(ops::distanceMatrix(queries, refs));
    state.SetItemsProcessed(state.iterations() * 7600 * 400);
}
BENCHMARK(BM_DistanceMatrix)->Unit(benchmark::kMillisecond);

/** One cold profiling unit at batch 320, as the campaign runs it. */
void
BM_ProfileUnit(benchmark::State& state)
{
    const auto id = static_cast<BenchmarkId>(state.range(0));
    state.SetLabel(benchmarkName(id) + "@320");
    for (auto _ : state)
        benchmark::DoNotOptimize(profileWorkload(id, 320));
}
BENCHMARK(BM_ProfileUnit)
    ->Arg(static_cast<int>(BenchmarkId::Knn))
    ->Arg(static_cast<int>(BenchmarkId::ObjRec))
    ->Arg(static_cast<int>(BenchmarkId::Sift))
    ->Unit(benchmark::kMillisecond);

void
BM_FastDetect(benchmark::State& state)
{
    const Image img = benchScene(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(detectFast(img));
}
BENCHMARK(BM_FastDetect)->Arg(96)->Arg(192);

void
BM_OrbDetect(benchmark::State& state)
{
    const Image img = benchScene(192);
    for (auto _ : state)
        benchmark::DoNotOptimize(detectOrb(img));
}
BENCHMARK(BM_OrbDetect);

void
BM_SiftDetect(benchmark::State& state)
{
    const Image img = benchScene(static_cast<int>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(detectSift(img));
}
BENCHMARK(BM_SiftDetect)->Arg(96)->Arg(192);

void
BM_SurfDetect(benchmark::State& state)
{
    const Image img = benchScene(192);
    for (auto _ : state)
        benchmark::DoNotOptimize(detectSurf(img));
}
BENCHMARK(BM_SurfDetect);

void
BM_Hog(benchmark::State& state)
{
    const Image img = benchScene(192);
    for (auto _ : state)
        benchmark::DoNotOptimize(computeHog(img));
}
BENCHMARK(BM_Hog);

void
BM_FaceDetect(benchmark::State& state)
{
    Rng rng(7);
    const Image img = synth::facesScene(192, 192, rng, 3);
    for (auto _ : state)
        benchmark::DoNotOptimize(detectFaces(img));
}
BENCHMARK(BM_FaceDetect);

void
BM_SvmTrain(benchmark::State& state)
{
    Rng rng(11);
    std::vector<Descriptor> xs;
    std::vector<int> ys;
    for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
        Descriptor d(64);
        for (auto& v : d)
            v = static_cast<float>(rng.normal());
        xs.push_back(std::move(d));
        ys.push_back(i % 2 == 0 ? 1 : -1);
    }
    for (auto _ : state) {
        LinearSvm svm;
        svm.train(xs, ys);
        benchmark::DoNotOptimize(svm);
    }
}
BENCHMARK(BM_SvmTrain)->Arg(64)->Arg(256);

void
BM_KnnPredict(benchmark::State& state)
{
    Rng rng(13);
    const auto n = static_cast<int>(state.range(0));
    std::vector<Descriptor> refs;
    std::vector<int> labels;
    for (int i = 0; i < n; ++i) {
        Descriptor d(64);
        for (auto& v : d)
            v = static_cast<float>(rng.normal());
        refs.push_back(std::move(d));
        labels.push_back(i % 2 == 0 ? 1 : -1);
    }
    std::vector<Descriptor> queries(refs.begin(),
                                    refs.begin() + n / 4);
    KnnClassifier knn;
    knn.fit(refs, labels);
    for (auto _ : state)
        benchmark::DoNotOptimize(knn.predict(queries));
}
BENCHMARK(BM_KnnPredict)->Arg(128)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
