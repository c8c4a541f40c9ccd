#include "cache/artifact_cache.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/file_io.h"
#include "obs/metrics.h"
#include "obs/timer.h"

namespace fs = std::filesystem;

namespace mapp::cache {

namespace {

/** Hex filename for a key: "<16 hex>.bin". */
std::string
entryFileName(std::uint64_t key)
{
    static const char* digits = "0123456789abcdef";
    std::string name(16, '0');
    std::uint64_t v = key;
    for (int i = 15; i >= 0; --i) {
        name[static_cast<std::size_t>(i)] = digits[v & 0xF];
        v >>= 4;
    }
    return name + ".bin";
}

/** Resolve the default cache root from the environment. */
std::string
defaultCacheDir()
{
    if (const char* dir = std::getenv("MAPP_CACHE_DIR"))
        return dir;  // empty string explicitly disables
    if (const char* xdg = std::getenv("XDG_CACHE_HOME")) {
        if (*xdg != '\0')
            return std::string(xdg) + "/mapp";
    }
    if (const char* home = std::getenv("HOME")) {
        if (*home != '\0')
            return std::string(home) + "/.cache/mapp";
    }
    return {};
}

}  // namespace

Hasher
keyHasher(std::string_view kind)
{
    Hasher h;
    h.add(kCacheCodeSalt);
    if (const char* salt = std::getenv("MAPP_CACHE_SALT"))
        h.add(std::string_view(salt));
    else
        h.add(std::string_view(""));
    h.add(kind);
    return h;
}

ArtifactCache::ArtifactCache(std::string dir)
{
    setDirectory(std::move(dir));
}

void
ArtifactCache::setDirectory(std::string dir)
{
    std::lock_guard<std::mutex> lock(mutex_);
    dir_ = std::move(dir);
    enabled_ = !dir_.empty();
}

std::string
ArtifactCache::directory() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dir_;
}

void
ArtifactCache::setEnabled(bool on)
{
    std::lock_guard<std::mutex> lock(mutex_);
    enabled_ = on && !dir_.empty();
}

bool
ArtifactCache::enabled() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return enabled_;
}

std::string
ArtifactCache::entryPath(std::string_view kind, std::uint64_t key) const
{
    return directory() + "/" + std::string(kind) + "/" +
           entryFileName(key);
}

std::optional<std::string>
ArtifactCache::readEntry(std::string_view kind, std::uint64_t key,
                         std::string& path) const
{
    if (!enabled())
        return std::nullopt;
    const obs::ScopedPhase phase("cache-load");
    path = entryPath(kind, key);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        obs::defaultRegistry().counter("cache.misses").add(1);
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) {
        obs::defaultRegistry().counter("cache.misses").add(1);
        return std::nullopt;
    }
    return std::move(buf).str();
}

void
ArtifactCache::countHit(std::size_t bytes) const
{
    auto& registry = obs::defaultRegistry();
    registry.counter("cache.hits").add(1);
    registry.counter("cache.bytes_read")
        .add(static_cast<std::uint64_t>(bytes));
}

bool
ArtifactCache::store(std::string_view kind, std::uint64_t key,
                     std::string_view blob)
{
    if (!enabled())
        return false;
    const obs::ScopedPhase phase("cache-store");
    const std::string path = entryPath(kind, key);

    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec) {
        warn("artifact cache: cannot create " + path + ": " +
             ec.message());
        return false;
    }

    // Concurrent stores of the same key are safe: writeFileAtomic uses
    // a unique temp per writer and an atomic rename, so readers only
    // ever see complete blobs (last writer wins, and all writers of one
    // key carry identical content by construction).
    if (!writeFileAtomic(path, blob)) {
        warn("artifact cache: cannot write " + path);
        return false;
    }
    obs::defaultRegistry()
        .counter("cache.bytes_written")
        .add(static_cast<std::uint64_t>(blob.size()));
    return true;
}

void
ArtifactCache::countCorrupt(const std::string& path,
                            std::string_view reason) const
{
    obs::defaultRegistry().counter("cache.evictions").add(1);
    warn("artifact cache: corrupt entry " + path + " (" +
         std::string(reason) + "); recomputing");
}

std::vector<KindStats>
ArtifactCache::scan() const
{
    std::vector<KindStats> out;
    const std::string root = directory();
    if (root.empty())
        return out;
    std::error_code ec;
    for (const auto& kindDir : fs::directory_iterator(root, ec)) {
        if (!kindDir.is_directory())
            continue;
        KindStats stats;
        stats.kind = kindDir.path().filename().string();
        std::error_code inner;
        for (const auto& entry :
             fs::directory_iterator(kindDir.path(), inner)) {
            if (!entry.is_regular_file() ||
                entry.path().extension() != ".bin")
                continue;
            ++stats.entries;
            stats.bytes += entry.file_size(inner);
        }
        out.push_back(std::move(stats));
    }
    std::sort(out.begin(), out.end(),
              [](const KindStats& a, const KindStats& b) {
                  return a.kind < b.kind;
              });
    return out;
}

std::size_t
ArtifactCache::clear()
{
    std::size_t removed = 0;
    const std::string root = directory();
    if (root.empty())
        return removed;
    std::error_code ec;
    for (const auto& kindDir : fs::directory_iterator(root, ec)) {
        if (!kindDir.is_directory())
            continue;
        std::error_code inner;
        for (const auto& entry :
             fs::directory_iterator(kindDir.path(), inner)) {
            if (!entry.is_regular_file())
                continue;
            std::error_code rm;
            if (fs::remove(entry.path(), rm))
                ++removed;
        }
    }
    return removed;
}

ArtifactCache&
defaultArtifactCache()
{
    static ArtifactCache instance(defaultCacheDir());
    return instance;
}

}  // namespace mapp::cache
