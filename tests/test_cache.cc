/**
 * @file
 * The persistent artifact cache and its binary serialization formats:
 * frame validation (magic/version/checksum/truncation), bit-identical
 * round-trips for traces, datasets and models, getOrCompute and its
 * corrupt-entry fallback (recompute + atomic replace, never a crash or
 * a stale hit), the compute-once Memo, key invalidation on config/salt
 * changes, cross-collector warm loads, and concurrent multi-thread
 * access with corruption injected (run under TSan via
 * `ctest -L parallel` and ASan via `ctest -L robustness`).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/artifact_cache.h"
#include "cache/binary_io.h"
#include "cache/hash.h"
#include "cache/memo.h"
#include "common/error.h"
#include "isa/trace_binary.h"
#include "ml/dataset_binary.h"
#include "ml/decision_tree.h"
#include "ml/model_binary.h"
#include "obs/metrics.h"
#include "predictor/data_collection.h"
#include "predictor/predictor.h"

namespace {

using namespace mapp;

namespace fs = std::filesystem;

/** A fresh empty directory under the test temp root. */
std::string
freshDir(const std::string& name)
{
    const std::string dir = ::testing::TempDir() + "mapp_cache_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/**
 * Point the process-wide artifact cache at a fresh temp directory for
 * one test; restores it to disabled on destruction so other tests in
 * the binary stay hermetic.
 */
class ScopedDefaultCache
{
  public:
    explicit ScopedDefaultCache(const std::string& name)
        : dir_(freshDir(name))
    {
        cache::defaultArtifactCache().setDirectory(dir_);
    }

    ~ScopedDefaultCache()
    {
        cache::defaultArtifactCache().setDirectory("");
        fs::remove_all(dir_);
    }

    const std::string& dir() const { return dir_; }

  private:
    std::string dir_;
};

std::uint64_t
counterValue(const char* name)
{
    return obs::defaultRegistry().counter(name).value();
}

// ---------------------------------------------------------------------------
// Hashing

TEST(CacheHash, FieldBoundariesMatter)
{
    cache::Hasher a;
    a.add(std::string_view("ab"));
    a.add(std::string_view("c"));
    cache::Hasher b;
    b.add(std::string_view("a"));
    b.add(std::string_view("bc"));
    EXPECT_NE(a.digest(), b.digest());
}

TEST(CacheHash, DeterministicAcrossInstances)
{
    cache::Hasher a;
    a.add(42);
    a.add(3.25);
    a.add(std::string_view("SIFT"));
    cache::Hasher b;
    b.add(42);
    b.add(3.25);
    b.add(std::string_view("SIFT"));
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.hex().size(), 16u);
}

TEST(CacheHash, DoublesHashedByBitPattern)
{
    cache::Hasher a;
    a.add(0.0);
    cache::Hasher b;
    b.add(-0.0);
    EXPECT_NE(a.digest(), b.digest());  // 0.0 == -0.0 but distinct bits
}

TEST(CacheHash, KindAndSaltChangeTheKey)
{
    const std::uint64_t trace = cache::keyHasher("trace").digest();
    const std::uint64_t model = cache::keyHasher("model").digest();
    EXPECT_NE(trace, model);

    ::setenv("MAPP_CACHE_SALT", "test-salt-x", 1);
    const std::uint64_t salted = cache::keyHasher("trace").digest();
    ::unsetenv("MAPP_CACHE_SALT");
    EXPECT_NE(trace, salted);
    EXPECT_EQ(trace, cache::keyHasher("trace").digest());
}

// ---------------------------------------------------------------------------
// Binary frame

TEST(BinaryIo, RoundTripsEveryFieldType)
{
    cache::BinaryWriter w("TSTF", 3);
    w.u8(200);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i32(-42);
    w.f64(-0.0);
    w.f64(std::numeric_limits<double>::quiet_NaN());
    w.str("length-prefixed \0 binary");  // embedded NUL survives
    const std::string blob = std::move(w).finish();

    cache::BinaryReader r(blob, "test", "TSTF", 3);
    EXPECT_EQ(r.u8(), 200);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
              std::bit_cast<std::uint64_t>(-0.0));
    EXPECT_TRUE(std::isnan(r.f64()));
    EXPECT_EQ(r.str(), "length-prefixed ");  // string_view stops at NUL
    r.expectEnd();
}

TEST(BinaryIo, RejectsWrongMagic)
{
    cache::BinaryWriter w("AAAA", 1);
    w.u32(7);
    const std::string blob = std::move(w).finish();
    EXPECT_THROW(cache::BinaryReader(blob, "t", "BBBB", 1), InputError);
}

TEST(BinaryIo, RejectsWrongVersion)
{
    cache::BinaryWriter w("AAAA", 1);
    w.u32(7);
    const std::string blob = std::move(w).finish();
    EXPECT_THROW(cache::BinaryReader(blob, "t", "AAAA", 2), InputError);
}

TEST(BinaryIo, RejectsTruncationAtEveryLength)
{
    cache::BinaryWriter w("AAAA", 1);
    w.str("payload");
    w.f64(1.5);
    const std::string blob = std::move(w).finish();
    for (std::size_t n = 0; n < blob.size(); ++n) {
        EXPECT_THROW(cache::BinaryReader(blob.substr(0, n), "t", "AAAA", 1),
                     InputError)
            << "length " << n;
    }
}

TEST(BinaryIo, RejectsEverySingleBitFlip)
{
    cache::BinaryWriter w("AAAA", 1);
    w.u64(0x1122334455667788ull);
    const std::string blob = std::move(w).finish();
    for (std::size_t i = 0; i < blob.size(); ++i) {
        std::string bad = blob;
        bad[i] = static_cast<char>(bad[i] ^ 0x10);
        EXPECT_THROW(cache::BinaryReader(bad, "t", "AAAA", 1), InputError)
            << "byte " << i;
    }
}

TEST(BinaryIo, RejectsOverRead)
{
    cache::BinaryWriter w("AAAA", 1);
    w.u32(7);
    const std::string blob = std::move(w).finish();
    cache::BinaryReader r(blob, "t", "AAAA", 1);
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_THROW(r.u32(), InputError);  // past the payload
}

TEST(BinaryIo, ExpectEndRejectsTrailingPayload)
{
    cache::BinaryWriter w("AAAA", 1);
    w.u32(7);
    w.u32(8);
    const std::string blob = std::move(w).finish();
    cache::BinaryReader r(blob, "t", "AAAA", 1);
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_THROW(r.expectEnd(), InputError);
}

// ---------------------------------------------------------------------------
// Artifact formats round-trip bit-identically

isa::WorkloadTrace
sampleTrace()
{
    isa::WorkloadTrace trace("SIFT", 40);
    isa::KernelPhase p;
    p.name = "dog-pyramid";
    p.mix.add(isa::InstClass::IntAlu, 1000);
    p.mix.add(isa::InstClass::MemRead, 500);
    p.mix.add(isa::InstClass::FpAlu, 250);
    p.bytesRead = 1 << 20;
    p.bytesWritten = 1 << 18;
    p.footprint = 1 << 21;
    p.parallelFraction = 0.875;
    p.workItems = 4096;
    p.locality = 0.625;
    p.branchDivergence = 0.125;
    p.launches = 3;
    p.hostStaged = true;
    trace.append(p);
    isa::KernelPhase q = p;
    q.name = "orientation";
    q.hostStaged = false;
    q.parallelFraction = 0.5;
    trace.append(q);
    return trace;
}

TEST(ArtifactFormats, TraceRoundTripsBitIdentically)
{
    const auto trace = sampleTrace();
    const std::string blob = isa::traceToBinary(trace);
    const auto back = isa::traceFromBinary(blob, "blob");
    EXPECT_EQ(back.app(), trace.app());
    EXPECT_EQ(back.batchSize(), trace.batchSize());
    ASSERT_EQ(back.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto& a = trace.phases()[i];
        const auto& b = back.phases()[i];
        EXPECT_EQ(a.name, b.name);
        for (isa::InstClass c : isa::kAllInstClasses)
            EXPECT_EQ(a.mix.count(c), b.mix.count(c));
        EXPECT_EQ(a.bytesRead, b.bytesRead);
        EXPECT_EQ(a.bytesWritten, b.bytesWritten);
        EXPECT_EQ(a.footprint, b.footprint);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.parallelFraction),
                  std::bit_cast<std::uint64_t>(b.parallelFraction));
        EXPECT_EQ(a.workItems, b.workItems);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.locality),
                  std::bit_cast<std::uint64_t>(b.locality));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.branchDivergence),
                  std::bit_cast<std::uint64_t>(b.branchDivergence));
        EXPECT_EQ(a.launches, b.launches);
        EXPECT_EQ(a.hostStaged, b.hostStaged);
    }
    // Serialization is deterministic, so blobs are byte-stable too.
    EXPECT_EQ(blob, isa::traceToBinary(back));
}

TEST(ArtifactFormats, TraceBinaryRejectsCorruption)
{
    const std::string blob = isa::traceToBinary(sampleTrace());
    EXPECT_THROW(isa::traceFromBinary(blob.substr(0, blob.size() / 2), "t"),
                 InputError);
    std::string bad = blob;
    bad[blob.size() / 2] ^= 0x01;
    EXPECT_THROW(isa::traceFromBinary(bad, "t"), InputError);
    EXPECT_THROW(isa::traceFromBinary("", "t"), InputError);
}

ml::Dataset
sampleDataset()
{
    ml::Dataset data({"a0_cpu_time", "a0_gpu_time", "fairness"});
    data.addRow({1.5, 0.25, 0.9}, 2.75, "FAST+SIFT");
    data.addRow({3.0, 0.125, 0.7}, 1.5, "HoG+HoG");
    data.addRow({0.75, 2.5, 0.85}, 4.25, "SVM+KNN");
    data.addRow({2.25, 1.75, 0.95}, 3.5, "FAST+FAST");
    return data;
}

TEST(ArtifactFormats, DatasetRoundTripsBitIdentically)
{
    const auto data = sampleDataset();
    const auto back = ml::datasetFromBinary(ml::datasetToBinary(data), "b");
    ASSERT_EQ(back.size(), data.size());
    EXPECT_EQ(back.featureNames(), data.featureNames());
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_EQ(back.row(i), data.row(i));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.target(i)),
                  std::bit_cast<std::uint64_t>(data.target(i)));
        EXPECT_EQ(back.group(i), data.group(i));
    }
}

TEST(ArtifactFormats, DatasetHashCoversContent)
{
    auto digestOf = [](const ml::Dataset& d) {
        cache::Hasher h;
        ml::hashDataset(h, d);
        return h.digest();
    };
    const auto data = sampleDataset();
    EXPECT_EQ(digestOf(data), digestOf(sampleDataset()));

    ml::Dataset tweakedTarget = sampleDataset();
    ml::Dataset tweakedGroup({"a0_cpu_time", "a0_gpu_time", "fairness"});
    for (std::size_t i = 0; i < data.size(); ++i)
        tweakedGroup.addRow(data.row(i), data.target(i),
                            i == 0 ? "OTHER" : data.group(i));
    EXPECT_NE(digestOf(data), digestOf(tweakedGroup));
}

TEST(ArtifactFormats, TreeRoundTripPredictsIdentically)
{
    const auto data = sampleDataset();
    ml::DecisionTreeParams params;
    params.maxDepth = 4;
    params.minSamplesLeaf = 1;
    params.minSamplesSplit = 2;
    ml::DecisionTreeRegressor tree(params);
    tree.fit(data);

    const auto back =
        ml::treeFromBinary(ml::treeToBinary(tree), "model-blob");
    ASSERT_EQ(back.nodeCount(), tree.nodeCount());
    for (const auto& row : data.rows()) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.predict(row)),
                  std::bit_cast<std::uint64_t>(tree.predict(row)));
    }
    // Node-for-node identity, not just behavioral equivalence.
    for (std::size_t i = 0; i < tree.nodeCount(); ++i) {
        const auto a = tree.nodeView(i);
        const auto b = back.nodeView(i);
        EXPECT_EQ(a.leaf, b.leaf);
        EXPECT_EQ(a.feature, b.feature);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.threshold),
                  std::bit_cast<std::uint64_t>(b.threshold));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value),
                  std::bit_cast<std::uint64_t>(b.value));
        EXPECT_EQ(a.samples, b.samples);
        EXPECT_EQ(a.left, b.left);
        EXPECT_EQ(a.right, b.right);
    }
}

TEST(ArtifactFormats, ModelBinaryRejectsGarbledNodes)
{
    const auto data = sampleDataset();
    ml::DecisionTreeRegressor tree;
    tree.fit(data);
    const std::string blob = ml::treeToBinary(tree);
    for (std::size_t i = 8; i < blob.size(); i += 7) {
        std::string bad = blob;
        bad[i] = static_cast<char>(bad[i] ^ 0x40);
        // Checksum catches the flip; anything that (hypothetically)
        // slipped through would still die in fromNodes validation.
        EXPECT_THROW(ml::treeFromBinary(bad, "t"), FatalError);
    }
}

/** Element counts no payload can hold: one past the vector limit and
 * one the allocator cannot satisfy. */
constexpr std::uint64_t kHugeCounts[] = {std::uint64_t{1} << 62,
                                          std::uint64_t{1} << 40};

/**
 * A well-formed tree frame (valid checksum) that declares @p numNames
 * feature names and @p numNodes nodes but carries none of them.
 */
std::string
craftedTreeFrame(std::uint64_t numNames, std::uint64_t numNodes)
{
    cache::BinaryWriter w("MMDL", 1);
    w.i32(10);
    w.i32(2);
    w.i32(2);
    w.f64(0.0);
    w.u64(numNames);
    if (numNames == 0)
        w.u64(numNodes);
    return std::move(w).finish();
}

TEST(ArtifactFormats, HugeCountsInValidFramesAreLocatedInputErrors)
{
    for (const std::uint64_t huge : kHugeCounts) {
        EXPECT_THROW(ml::treeFromBinary(craftedTreeFrame(huge, 0), "t"),
                     InputError);
        EXPECT_THROW(ml::treeFromBinary(craftedTreeFrame(0, huge), "t"),
                     InputError);

        cache::BinaryWriter features("MDST", 1);
        features.u64(huge);
        EXPECT_THROW(
            ml::datasetFromBinary(std::move(features).finish(), "d"),
            InputError);

        cache::BinaryWriter rows("MDST", 1);
        rows.u64(1);
        rows.str("x");
        rows.u64(huge);
        EXPECT_THROW(ml::datasetFromBinary(std::move(rows).finish(), "d"),
                     InputError);
    }
    try {
        ml::treeFromBinary(craftedTreeFrame(0, kHugeCounts[0]), "crafted");
        FAIL() << "expected InputError";
    } catch (const InputError& e) {
        EXPECT_EQ(e.error().context().file, "crafted");
    }
}

// ---------------------------------------------------------------------------
// ArtifactCache behavior

std::string
serializeTestValue(std::uint64_t value)
{
    cache::BinaryWriter w("TSTC", 1);
    w.u64(value);
    return std::move(w).finish();
}

std::string
testBlob(std::uint64_t key)
{
    return serializeTestValue(key * 3 + 1);
}

std::uint64_t
parseTestBlob(const std::string& blob, const std::string& path)
{
    cache::BinaryReader r(blob, path, "TSTC", 1);
    const std::uint64_t v = r.u64();
    r.expectEnd();
    return v;
}

TEST(ArtifactCache, StoreThenLoadHits)
{
    cache::ArtifactCache store(freshDir("store_load"));
    const std::uint64_t hits0 = counterValue("cache.hits");
    const std::uint64_t misses0 = counterValue("cache.misses");

    EXPECT_FALSE(
        store.loadAndParse("kind", 7, parseTestBlob).has_value());
    EXPECT_EQ(counterValue("cache.misses"), misses0 + 1);

    EXPECT_TRUE(store.store("kind", 7, testBlob(7)));
    const auto hit = store.loadAndParse("kind", 7, parseTestBlob);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 7u * 3 + 1);
    EXPECT_EQ(counterValue("cache.hits"), hits0 + 1);
}

TEST(ArtifactCache, DisabledCacheDoesNothing)
{
    cache::ArtifactCache store;  // no directory -> disabled
    EXPECT_FALSE(store.enabled());
    EXPECT_FALSE(store.store("kind", 1, testBlob(1)));
    const std::uint64_t misses0 = counterValue("cache.misses");
    EXPECT_FALSE(store.loadAndParse("kind", 1, parseTestBlob).has_value());
    EXPECT_EQ(counterValue("cache.misses"), misses0);  // not counted

    cache::ArtifactCache rooted(freshDir("disabled"));
    rooted.setEnabled(false);
    EXPECT_FALSE(rooted.store("kind", 1, testBlob(1)));
    EXPECT_FALSE(
        rooted.loadAndParse("kind", 1, parseTestBlob).has_value());
}

/** getOrCompute of @p key's test value, counting computes. */
std::uint64_t
getOrComputeTestValue(cache::ArtifactCache& store, std::uint64_t key,
                      int& computes)
{
    return store.getOrCompute(
        "kind", key, parseTestBlob,
        [&] {
            ++computes;
            return key * 3 + 1;
        },
        serializeTestValue);
}

/**
 * getOrCompute over a damaged entry: the compute runs once, the bad
 * entry counts one eviction, and the recompute's store replaces it so a
 * plain load is a hit again.
 */
void
expectRecomputedOnce(cache::ArtifactCache& store, std::uint64_t key)
{
    const std::uint64_t evictions0 = counterValue("cache.evictions");
    int computes = 0;
    EXPECT_EQ(getOrComputeTestValue(store, key, computes), key * 3 + 1);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(counterValue("cache.evictions"), evictions0 + 1);

    const std::uint64_t hits0 = counterValue("cache.hits");
    const auto hit = store.loadAndParse("kind", key, parseTestBlob);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, key * 3 + 1);
    EXPECT_EQ(counterValue("cache.hits"), hits0 + 1);
}

TEST(ArtifactCache, CorruptEntryIsEvictedAndRecomputed)
{
    cache::ArtifactCache store(freshDir("corrupt"));
    ASSERT_TRUE(store.store("kind", 9, testBlob(9)));

    // Garble the file on disk behind the cache's back.
    const std::string path = store.entryPath("kind", 9);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "not a valid frame";
    }
    expectRecomputedOnce(store, 9);
}

TEST(ArtifactCache, TruncatedEntryFallsBack)
{
    cache::ArtifactCache store(freshDir("truncated"));
    ASSERT_TRUE(store.store("kind", 11, testBlob(11)));
    const std::string path = store.entryPath("kind", 11);
    const auto size = fs::file_size(path);
    fs::resize_file(path, size / 2);
    expectRecomputedOnce(store, 11);
}

TEST(ArtifactCache, HugeCountModelFrameIsRecomputed)
{
    cache::ArtifactCache store(freshDir("huge_count"));
    const auto data = sampleDataset();
    for (const std::uint64_t huge : kHugeCounts) {
        ASSERT_TRUE(store.store("model", huge, craftedTreeFrame(0, huge)));
        const std::uint64_t evictions0 = counterValue("cache.evictions");
        int computes = 0;
        const auto tree = store.getOrCompute(
            "model", huge, ml::treeFromBinary,
            [&] {
                ++computes;
                ml::DecisionTreeRegressor fitted;
                fitted.fit(data);
                return fitted;
            },
            ml::treeToBinary);
        EXPECT_EQ(computes, 1);
        EXPECT_TRUE(tree.trained());
        EXPECT_EQ(counterValue("cache.evictions"), evictions0 + 1);
    }
}

/** The cache.* counters, in a fixed order. */
std::vector<std::uint64_t>
cacheCounters()
{
    std::vector<std::uint64_t> out;
    for (const char* name : {"cache.hits", "cache.misses", "cache.bytes_read",
                             "cache.bytes_written", "cache.evictions"})
        out.push_back(counterValue(name));
    return out;
}

TEST(ArtifactCache, GetOrComputeWhenDisabledOnlyComputes)
{
    cache::ArtifactCache store;  // no directory -> disabled
    const auto counters0 = cacheCounters();
    int computes = 0;
    const std::uint64_t value = store.getOrCompute(
        "kind", 3,
        [](const std::string&, const std::string&) -> std::uint64_t {
            ADD_FAILURE() << "parse called while disabled";
            return 0;
        },
        [&] {
            ++computes;
            return std::uint64_t{10};
        },
        [](std::uint64_t) {
            ADD_FAILURE() << "serialize called while disabled";
            return std::string();
        });
    EXPECT_EQ(value, 10u);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(cacheCounters(), counters0);
}

TEST(ArtifactCache, GetOrComputeStoresOnMissThenHits)
{
    cache::ArtifactCache store(freshDir("get_or_compute"));
    const std::uint64_t hits0 = counterValue("cache.hits");
    int computes = 0;
    EXPECT_EQ(getOrComputeTestValue(store, 5, computes), 16u);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(counterValue("cache.hits"), hits0);
    EXPECT_TRUE(fs::exists(store.entryPath("kind", 5)));

    EXPECT_EQ(getOrComputeTestValue(store, 5, computes), 16u);
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(counterValue("cache.hits"), hits0 + 1);
}

TEST(ArtifactCache, ScanAndClear)
{
    cache::ArtifactCache store(freshDir("scan"));
    store.store("alpha", 1, testBlob(1));
    store.store("alpha", 2, testBlob(2));
    store.store("beta", 3, testBlob(3));

    const auto stats = store.scan();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].kind, "alpha");
    EXPECT_EQ(stats[0].entries, 2u);
    EXPECT_EQ(stats[1].kind, "beta");
    EXPECT_EQ(stats[1].entries, 1u);
    EXPECT_GT(stats[0].bytes, 0u);

    EXPECT_EQ(store.clear(), 3u);
    EXPECT_TRUE(store.scan().empty() ||
                store.scan()[0].entries + store.scan()[1].entries == 0);
}

TEST(ArtifactCache, ClearRemovesOrphanedTempFiles)
{
    cache::ArtifactCache store(freshDir("orphans"));
    ASSERT_TRUE(store.store("kind", 1, testBlob(1)));
    // What a store killed between its write and its rename leaves.
    const std::string orphan = store.entryPath("kind", 2) + ".tmp.0.12345";
    {
        std::ofstream out(orphan, std::ios::binary);
        out << "partial";
    }
    EXPECT_EQ(store.clear(), 2u);
    EXPECT_FALSE(fs::exists(orphan));
    EXPECT_TRUE(fs::is_empty(store.directory() + "/kind"));
}

// ---------------------------------------------------------------------------
// Memo: compute-once in-process memoization

TEST(Memo, RacingThreadsComputeEachKeyOnce)
{
    constexpr int kKeys = 16;
    constexpr int kThreads = 8;
    cache::Memo<int, int> memo("test.memo_race");
    std::vector<std::atomic<int>> computes(kKeys);
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kKeys; ++i) {
                const int key = (i + t) % kKeys;  // staggered orders
                const int value = memo.get(key, [&] {
                    computes[key].fetch_add(1);
                    std::this_thread::yield();
                    return key * 10;
                });
                if (value != key * 10)
                    wrong.fetch_add(1);
            }
        });
    }
    for (auto& thread : threads)
        thread.join();
    EXPECT_EQ(wrong.load(), 0);
    for (int key = 0; key < kKeys; ++key) {
        EXPECT_EQ(computes[key].load(), 1) << "key " << key;
        EXPECT_TRUE(memo.contains(key));
    }
}

TEST(Memo, ThrowingComputeLeavesKeyRetryable)
{
    cache::Memo<int, int> memo("test.memo_throw");
    const auto fail = []() -> int { throw std::runtime_error("transient"); };
    EXPECT_THROW(memo.get(1, fail), std::runtime_error);
    EXPECT_FALSE(memo.contains(1));
    EXPECT_EQ(memo.get(1, [] { return 7; }), 7);
    EXPECT_TRUE(memo.contains(1));
}

TEST(Memo, ReferencesSurviveLaterInserts)
{
    cache::Memo<int, std::string> memo("test.memo_refs");
    const std::string& first =
        memo.get(0, [] { return std::string("first"); });
    for (int key = 1; key < 1000; ++key)
        memo.get(key, [key] { return std::to_string(key); });
    EXPECT_EQ(&memo.get(0, [] { return std::string("other"); }), &first);
    EXPECT_EQ(first, "first");
}

TEST(Memo, HitsAndMissesAddUpToLookups)
{
    cache::Memo<int, int> memo("test.memo_counts");
    const std::uint64_t hits0 = counterValue("test.memo_counts_hits");
    const std::uint64_t misses0 = counterValue("test.memo_counts_misses");
    constexpr int kLookups = 40;
    for (int i = 0; i < kLookups; ++i)
        memo.get(i % 5, [i] { return i % 5; });
    EXPECT_EQ(counterValue("test.memo_counts_misses") - misses0, 5u);
    EXPECT_EQ(counterValue("test.memo_counts_hits") - hits0,
              std::uint64_t{kLookups - 5});
}

// ---------------------------------------------------------------------------
// Pipeline integration: warm loads across collector instances

predictor::BagSpec
smallSpec()
{
    predictor::BagMember m{vision::BenchmarkId::Fast, 20};
    return predictor::BagSpec{m, m};
}

TEST(CacheIntegration, SecondCollectorLoadsIdenticalPointFromDisk)
{
    ScopedDefaultCache scoped("collector");

    predictor::DataCollector first;
    const auto cold = first.collect(smallSpec());

    const std::uint64_t hits0 = counterValue("cache.hits");
    predictor::DataCollector second;
    const auto warm = second.collect(smallSpec());
    // member + cpurun + gpurun records all hit.
    EXPECT_GE(counterValue("cache.hits"), hits0 + 3);

    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.fairness),
              std::bit_cast<std::uint64_t>(cold.fairness));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.cpuSharedMakespan),
              std::bit_cast<std::uint64_t>(cold.cpuSharedMakespan));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.gpuBagTime),
              std::bit_cast<std::uint64_t>(cold.gpuBagTime));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.a.cpuTime),
              std::bit_cast<std::uint64_t>(cold.a.cpuTime));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(warm.a.gpuTime),
              std::bit_cast<std::uint64_t>(cold.a.gpuTime));
    EXPECT_EQ(warm.a.mixPercent, cold.a.mixPercent);
}

TEST(CacheIntegration, SharedCpuCoRunIsMemoizedWithinACollector)
{
    ScopedDefaultCache scoped("shared_memo");

    predictor::DataCollector collector;
    const auto point = collector.collect(smallSpec());
    const std::uint64_t hits0 =
        counterValue("collector.shared_cache_hits");
    const std::uint64_t misses0 =
        counterValue("collector.shared_cache_misses");

    // measureFairness() reuses collect()'s co-run: a memo hit, no new
    // miss, and the identical fairness value.
    const double fair = collector.measureFairness(smallSpec());
    EXPECT_EQ(counterValue("collector.shared_cache_hits"), hits0 + 1);
    EXPECT_EQ(counterValue("collector.shared_cache_misses"), misses0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fair),
              std::bit_cast<std::uint64_t>(point.fairness));
}

TEST(CacheIntegration, CorruptMemberRecordFallsBackToSimulation)
{
    ScopedDefaultCache scoped("corrupt_member");

    predictor::DataCollector first;
    const auto cold = first.collect(smallSpec());

    // Garble every member record on disk.
    const std::string memberDir = scoped.dir() + "/member";
    ASSERT_TRUE(fs::exists(memberDir));
    for (const auto& entry : fs::directory_iterator(memberDir)) {
        std::ofstream out(entry.path(),
                          std::ios::binary | std::ios::trunc);
        out << "garbage";
    }

    predictor::DataCollector second;
    const auto recomputed = second.collect(smallSpec());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(recomputed.gpuBagTime),
              std::bit_cast<std::uint64_t>(cold.gpuBagTime));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(recomputed.a.cpuTime),
              std::bit_cast<std::uint64_t>(cold.a.cpuTime));
}

TEST(CacheIntegration, TrainedModelReloadsBitIdentically)
{
    ScopedDefaultCache scoped("model");

    predictor::PredictorParams params;
    params.scheme = predictor::FeatureScheme{};
    params.scheme.name = "times+fairness";
    params.scheme.cpuTime = true;
    params.scheme.gpuTime = true;
    params.scheme.fairness = true;

    // A small raw dataset carrying exactly the scheme's columns.
    ml::Dataset data(params.scheme.featureNames());
    const std::size_t nF = data.numFeatures();
    for (int r = 0; r < 12; ++r) {
        std::vector<double> row(nF);
        for (std::size_t k = 0; k < nF; ++k)
            row[k] = 0.25 * static_cast<double>((r * 7 + k * 3) % 11);
        data.addRow(std::move(row),
                    1.0 + 0.5 * static_cast<double>(r % 5), "G");
    }

    predictor::MultiAppPredictor cold(params);
    cold.train(data);
    const std::uint64_t hits0 = counterValue("cache.hits");

    predictor::MultiAppPredictor warm(params);
    warm.train(data);
    EXPECT_GE(counterValue("cache.hits"), hits0 + 1);

    const auto coldPred = cold.predictDataset(data);
    const auto warmPred = warm.predictDataset(data);
    ASSERT_EQ(coldPred.size(), warmPred.size());
    for (std::size_t i = 0; i < coldPred.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(coldPred[i]),
                  std::bit_cast<std::uint64_t>(warmPred[i]));
    }
}

// ---------------------------------------------------------------------------
// Concurrency: many threads over one store, corruption injected

TEST(CacheConcurrency, ParallelLoadStoreWithCorruptionIsSafe)
{
    cache::ArtifactCache store(freshDir("concurrent"));
    constexpr int kKeys = 16;
    constexpr int kThreads = 8;

    // Pre-corrupt the even keys: those files must be evicted and
    // recomputed by whichever thread touches them first.
    for (std::uint64_t key = 0; key < kKeys; key += 2) {
        store.store("kind", key, testBlob(key));
        std::ofstream out(store.entryPath("kind", key),
                          std::ios::binary | std::ios::trunc);
        out << "corrupt";
    }

    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&store, &wrong] {
            for (std::uint64_t key = 0; key < kKeys; ++key) {
                auto value =
                    store.loadAndParse("kind", key, parseTestBlob);
                if (!value) {
                    store.store("kind", key, testBlob(key));
                    value =
                        store.loadAndParse("kind", key, parseTestBlob);
                }
                if (!value || *value != key * 3 + 1)
                    wrong.fetch_add(1);
            }
        });
    }
    for (auto& thread : threads)
        thread.join();
    EXPECT_EQ(wrong.load(), 0);

    // Every key ends healthy.
    for (std::uint64_t key = 0; key < kKeys; ++key) {
        const auto value =
            store.loadAndParse("kind", key, parseTestBlob);
        ASSERT_TRUE(value.has_value()) << "key " << key;
        EXPECT_EQ(*value, key * 3 + 1);
    }
}

}  // namespace
