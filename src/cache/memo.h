/**
 * @file
 * The in-process compute-once memo that sits in front of the
 * persistent artifact cache.
 *
 * Memo<Key, Value>::get(key, compute) runs @p compute at most once per
 * key for the memo's lifetime, even when pool workers race on the same
 * key: the first caller computes outside the memo's lock, while racers
 * on that key wait for its value and callers on other keys proceed
 * concurrently. A compute that throws leaves the key unset, so a later
 * call retries. Stored values never move, so returned references stay
 * valid for the memo's lifetime.
 *
 * Observability: every successful lookup counts once in
 * `<prefix>_hits` (value already there, or produced by a racer) or
 * `<prefix>_misses` (this call computed it); a lookup whose compute
 * throws counts in neither.
 */

#ifndef MAPP_CACHE_MEMO_H
#define MAPP_CACHE_MEMO_H

#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace mapp::cache {

template <typename Key, typename Value>
class Memo
{
  public:
    /** Counts under `<prefix>_hits` / `<prefix>_misses`. */
    explicit Memo(const std::string& prefix)
        : hits_(obs::defaultRegistry().counter(prefix + "_hits")),
          misses_(obs::defaultRegistry().counter(prefix + "_misses"))
    {
    }

    Memo(const Memo&) = delete;
    Memo& operator=(const Memo&) = delete;

    /** The value for @p key, running `compute()` on the first call. */
    template <typename Compute>
    const Value& get(const Key& key, Compute&& compute)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        Slot& slot = slots_[key];
        ready_.wait(lock, [&] { return !slot.computing; });
        if (slot.value) {
            hits_.add(1);
            return *slot.value;
        }
        slot.computing = true;
        lock.unlock();

        std::optional<Value> fresh;
        try {
            fresh.emplace(compute());
        } catch (...) {
            lock.lock();
            slot.computing = false;
            ready_.notify_all();
            throw;
        }
        lock.lock();
        slot.value = std::move(fresh);
        slot.computing = false;
        ready_.notify_all();
        misses_.add(1);
        return *slot.value;
    }

    /** Whether @p key already holds a computed value. */
    bool contains(const Key& key) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = slots_.find(key);
        return it != slots_.end() && it->second.value.has_value();
    }

  private:
    struct Slot
    {
        std::optional<Value> value;
        bool computing = false;  ///< a caller is running compute()
    };

    mutable std::mutex mutex_;  ///< guards slots_
    std::condition_variable ready_;
    std::map<Key, Slot> slots_;  ///< map nodes never move
    obs::Counter& hits_;
    obs::Counter& misses_;
};

}  // namespace mapp::cache

#endif  // MAPP_CACHE_MEMO_H
