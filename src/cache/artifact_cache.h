/**
 * @file
 * The persistent content-addressed artifact cache.
 *
 * Expensive pipeline artifacts — profiled workload traces, simulator
 * alone/shared run results, collected campaigns, trained models — are
 * memoized on disk across processes. Every artifact is addressed by a
 * 64-bit key hashed over (artifact kind, identity fields, the full
 * producing configuration, and a code-version salt), so any config or
 * code-semantics change invalidates cleanly by landing on a new key;
 * stale entries are never read, only orphaned. Values are the compact
 * binary blobs of cache/binary_io.h. getOrCompute() is the one way
 * the pipeline reaches the store: a hit returns the parsed entry, a
 * miss computes, stores and returns the computed value. A corrupt,
 * truncated or version-mismatched entry is detected by the reader and
 * treated as a miss; the file is never unlinked, so a healthy entry a
 * peer renames into place meanwhile survives, and the recompute's own
 * atomic store supersedes the bad one — never a crash, never a stale
 * hit.
 *
 * Layout: `<dir>/<kind>/<16-hex-digest>.bin`, one file per artifact.
 * The directory defaults to $MAPP_CACHE_DIR, else $XDG_CACHE_HOME/mapp,
 * else ~/.cache/mapp; `mapp_cli --cache-dir=`/`--no-cache` override it.
 * Stores write to a temp file and rename() into place, so concurrent
 * processes and threads never observe partial entries.
 *
 * Observability: cache.{hits,misses,bytes_read,bytes_written,evictions}
 * counters in the default metrics registry (evictions counts corrupt
 * entries found), and `cache-load` / `cache-store` phases on the
 * pipeline profiler.
 */

#ifndef MAPP_CACHE_ARTIFACT_CACHE_H
#define MAPP_CACHE_ARTIFACT_CACHE_H

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/hash.h"
#include "common/log.h"

namespace mapp::cache {

/**
 * The code-version salt folded into every key by keyHasher(). Bump it
 * whenever a serialization format or the semantics of a cached
 * computation (profiler, simulators, collector, tree fit) change, so
 * old entries become unreachable instead of wrong. The MAPP_CACHE_SALT
 * env var appends to it (tests use this to force clean misses).
 */
inline constexpr std::string_view kCacheCodeSalt = "mapp-artifacts-v1";

/**
 * A Hasher seeded with the artifact kind and the code-version salt
 * (plus any MAPP_CACHE_SALT override). Call sites fold in their
 * identity and configuration fields and pass digest() as the key.
 */
Hasher keyHasher(std::string_view kind);

/** On-disk footprint of one artifact kind (for `mapp_cli cache stats`). */
struct KindStats
{
    std::string kind;
    std::size_t entries = 0;
    std::uint64_t bytes = 0;
};

/** A content-addressed blob store rooted at one directory. */
class ArtifactCache
{
  public:
    /** Disabled until a directory is set. */
    ArtifactCache() = default;

    /** Rooted at @p dir (enabled if non-empty). */
    explicit ArtifactCache(std::string dir);

    /** Point at a new root; non-empty enables, empty disables. */
    void setDirectory(std::string dir);

    std::string directory() const;

    /** Master switch; load/store are no-ops while disabled. */
    void setEnabled(bool on);

    bool enabled() const;

    /** Path an entry would live at (whether or not it exists). */
    std::string entryPath(std::string_view kind, std::uint64_t key) const;

    /**
     * Store a finished blob under (kind, key): write-to-temp + atomic
     * rename. Counts cache.bytes_written. @return false when disabled
     * or on I/O failure (a cache store failure is never fatal — the
     * value was just computed and the caller proceeds with it).
     */
    bool store(std::string_view kind, std::uint64_t key,
               std::string_view blob);

    /**
     * Load-and-parse with corruption fallback. @p parse is invoked as
     * `parse(blob, path)` and must throw mapp::FatalError (typically
     * the binary reader's InputError) on any malformed input. Returns
     * the parsed artifact on a clean hit; nullopt when the cache is
     * disabled, the entry is absent (cache.misses), or the entry fails
     * to parse. A corrupt entry is counted in cache.evictions and
     * logged, but left on disk: the caller's recompute-and-store
     * replaces it atomically.
     */
    template <typename Parser>
    auto loadAndParse(std::string_view kind, std::uint64_t key,
                      Parser&& parse)
        -> std::optional<decltype(parse(std::string(), std::string()))>
    {
        std::string path;
        const auto blob = readEntry(kind, key, path);
        if (!blob)
            return std::nullopt;
        try {
            auto value = parse(*blob, path);
            countHit(blob->size());
            return value;
        } catch (const FatalError& e) {
            countCorrupt(path, e.what());
            return std::nullopt;
        }
    }

    /**
     * The artifact under (kind, key): on a hit, `parse(blob, path)`;
     * on a miss (absent or corrupt entry), `compute()`, stored as
     * `serialize(value)` and returned as computed, without a reload.
     * While the cache is disabled it only calls `compute()`.
     */
    template <typename Parser, typename Compute, typename Serializer>
    auto getOrCompute(std::string_view kind, std::uint64_t key,
                      Parser&& parse, Compute&& compute,
                      Serializer&& serialize) -> decltype(compute())
    {
        if (!enabled())
            return compute();
        if (auto hit = loadAndParse(kind, key, parse))
            return std::move(*hit);
        auto value = compute();
        store(kind, key, serialize(value));
        return value;
    }

    /** Per-kind entry counts and bytes on disk (kind-name sorted). */
    std::vector<KindStats> scan() const;

    /**
     * Remove every file under each kind directory, including temp
     * files left by a store killed before its rename; @return files
     * removed.
     */
    std::size_t clear();

  private:
    /**
     * Raw entry read; fills @p path with the entry location. Counts a
     * miss when enabled and absent. No hit accounting (loadAndParse
     * counts a hit only after a successful parse).
     */
    std::optional<std::string> readEntry(std::string_view kind,
                                         std::uint64_t key,
                                         std::string& path) const;

    void countHit(std::size_t bytes) const;

    /** Count and log an entry that failed to parse. */
    void countCorrupt(const std::string& path,
                      std::string_view reason) const;

    mutable std::mutex mutex_;  ///< guards dir_/enabled_ only
    std::string dir_;
    bool enabled_ = false;
};

/**
 * The process-wide cache used by the built-in memoization points
 * (vision::cachedTrace, DataCollector, MultiAppPredictor::train). Its
 * root is resolved from the environment on first use; resolving to no
 * usable directory leaves it disabled.
 */
ArtifactCache& defaultArtifactCache();

}  // namespace mapp::cache

#endif  // MAPP_CACHE_ARTIFACT_CACHE_H
