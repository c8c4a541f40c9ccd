/**
 * @file
 * Prediction provenance: a thread-safe, sampling-controlled ring
 * buffer of per-prediction audit records. Every serving-path
 * prediction draws a sequence id; sampled ids get a full record —
 * normalized feature vector, predicted seconds, an uncertainty
 * estimate (forest vote spread or leaf residual RMSE) and the
 * dominant decision-path summary — so a run's predictions can be
 * audited after the fact (`mapp_cli --predictions-out`) and the run
 * report can show the provenance of its highest-error predictions.
 *
 * The log is disabled by default: hot paths gate on one relaxed
 * atomic load. When enabled, a batch of n predictions costs one
 * fetch_add for the whole batch (reserve(n)) plus record construction
 * only for the sampled rows, so audit overhead scales with the sample
 * period, not the batch size. recordChunkInPlace() takes a mutex —
 * only sampled rows ever reach it.
 */

#ifndef MAPP_OBS_AUDIT_H
#define MAPP_OBS_AUDIT_H

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace mapp::obs {

/** One audited prediction: provenance + outcome. */
struct PredictionRecord
{
    std::uint64_t seq = 0;  ///< global prediction sequence id
    double tsUs = 0.0;      ///< tracer wall clock at record time
    std::string model;      ///< which predict path produced it
    std::vector<double> features;  ///< normalized model-input vector
    double predictedSeconds = 0.0;
    /** Spread estimate: forest per-tree vote stddev, or the leaf's
     *  training residual RMSE for a single tree. */
    double uncertaintySeconds = 0.0;
    std::string pathSummary;  ///< dominant decision path, "f<=v -> ..."
    /** Ground truth in seconds; NaN until/unless it is known. */
    double actualSeconds = std::numeric_limits<double>::quiet_NaN();
};

/** Default ring capacity (records kept, oldest evicted first). */
inline constexpr std::size_t kDefaultPredictionLogCapacity = 1024;

/** Sampling-controlled ring buffer of prediction audit records. */
class PredictionLog
{
  public:
    explicit PredictionLog(
        std::size_t capacity = kDefaultPredictionLogCapacity);

    PredictionLog(const PredictionLog&) = delete;
    PredictionLog& operator=(const PredictionLog&) = delete;

    /** Cheap gate for instrumentation sites (one relaxed load). */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /**
     * Record every @p period-th prediction (1 = all, 100 = 1%).
     * @throws FatalError on 0.
     */
    void setSamplePeriod(std::uint64_t period);

    std::uint64_t samplePeriod() const
    {
        return period_.load(std::memory_order_relaxed);
    }

    std::size_t capacity() const { return capacity_; }

    /**
     * Reserve @p n consecutive sequence ids for a prediction batch and
     * return the first; the batch's row i has id reserve(n) + i. One
     * atomic add regardless of batch size.
     */
    std::uint64_t reserve(std::uint64_t n)
    {
        return nextSeq_.fetch_add(n, std::memory_order_relaxed);
    }

    /** Should the prediction with sequence id @p seq be recorded? */
    bool sampled(std::uint64_t seq) const
    {
        return seq % samplePeriod() == 0;
    }

    /**
     * Record a chunk of sampled rows under ONE lock acquisition:
     * @p fill(id, slot) runs once per id in @p ids, under the log
     * mutex, on a slot whose string/vector buffers are REUSED across
     * evictions, so a steady-state record performs no allocation —
     * this is what keeps 1%-sampled auditing inside the serving
     * path's overhead budget. Each slot arrives reset to a default
     * record (seq 0, NaN actual, buffers cleared but capacity kept);
     * @p fill must set every field it cares about via assign()-style
     * writes.
     */
    template <typename Fill>
    void recordChunkInPlace(std::span<const std::uint64_t> ids,
                            Fill&& fill)
    {
        if (ids.empty())
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        for (const std::uint64_t id : ids) {
            PredictionRecord& slot = nextSlotLocked();
            resetSlot(slot);
            fill(id, slot);
        }
        written_.fetch_add(ids.size(), std::memory_order_relaxed);
    }

    /**
     * Attach ground truth to a reserved batch after the fact: the
     * retained record with sequence id first_seq + i (if any survived
     * sampling and eviction) gets actualSeconds = actual_seconds[i].
     * Linear scan under the mutex — evaluation paths only.
     */
    void annotate(std::uint64_t first_seq,
                  std::span<const double> actual_seconds);

    /** Sequence ids handed out so far. */
    std::uint64_t totalSeen() const
    {
        return nextSeq_.load(std::memory_order_relaxed);
    }

    /** Records ever written (>= snapshot().size()). */
    std::uint64_t totalRecorded() const
    {
        return written_.load(std::memory_order_relaxed);
    }

    /** Copy of the retained records, oldest first. */
    std::vector<PredictionRecord> snapshot() const;

    /** Drop all records and reset the sequence counter. */
    void clear();

    /** The retained records as JSON Lines (one object per line). */
    std::string toJsonl() const;

    /** Write toJsonl() to @p path. @return false on I/O failure. */
    bool writeJsonl(const std::string& path) const;

  private:
    /** Scalar reset that keeps the slot's buffer capacities. */
    static void resetSlot(PredictionRecord& slot);

    /** Next slot to write (grows until full, then wraps). Caller must
     *  hold mutex_. */
    PredictionRecord& nextSlotLocked()
    {
        if (ring_.size() < capacity_) {
            ring_.emplace_back();
            return ring_.back();
        }
        PredictionRecord& slot = ring_[head_];
        head_ = (head_ + 1) % capacity_;
        return slot;
    }

    std::size_t capacity_;
    std::atomic<bool> enabled_{false};
    std::atomic<std::uint64_t> period_{1};
    std::atomic<std::uint64_t> nextSeq_{0};
    std::atomic<std::uint64_t> written_{0};
    mutable std::mutex mutex_;
    std::vector<PredictionRecord> ring_;  ///< arrival order, wraps
    std::size_t head_ = 0;  ///< next slot once the ring is full
};

/** The process-wide prediction log used by the predictor hooks. */
PredictionLog& predictionLog();

}  // namespace mapp::obs

#endif  // MAPP_OBS_AUDIT_H
