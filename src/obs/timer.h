/**
 * @file
 * Wall-clock timing instruments built on the metrics registry.
 *
 * ScopedTimer is an RAII stopwatch feeding a Histogram. ScopedPhase
 * times one pipeline stage (feature extraction → fairness measurement
 * → tree training → LOOCV) and records it in the registry under its
 * phase path, so the registry alone holds the pipeline's phase tree:
 * histogram "phase.campaign-collection/feature-extraction" counts the
 * feature-extraction phases entered inside campaign-collection and
 * sums their seconds. phaseTree() rebuilds the tree from a snapshot.
 * When the global tracer is enabled, ScopedPhase also records its span
 * on the pipeline track.
 */

#ifndef MAPP_OBS_TIMER_H
#define MAPP_OBS_TIMER_H

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace mapp::obs {

/** RAII stopwatch: observes its lifetime (seconds) into a histogram. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Histogram& histogram) : histogram_(&histogram) {}

    /** Convenience: find-or-create the histogram in @p registry. */
    ScopedTimer(Registry& registry, std::string_view name)
        : histogram_(&registry.histogram(name))
    {
    }

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

    ~ScopedTimer()
    {
        if (histogram_ != nullptr)
            histogram_->observe(elapsedSeconds());
    }

    /** Seconds since construction. */
    double elapsedSeconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    /** Detach: the destructor will not record. */
    void cancel() { histogram_ = nullptr; }

  private:
    Histogram* histogram_;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

/** Registry histogram prefix every phase records under. */
inline constexpr std::string_view kPhasePrefix = "phase.";

/**
 * The calling thread's current phase path: the names of the open
 * ScopedPhases joined by '/', or "" at the top level. A parallelFor
 * lane runs under the path of the thread that called parallelFor.
 */
const std::string& currentPhasePath();

/**
 * RAII: make @p path the calling thread's phase path for this scope
 * and restore the previous one on exit (also when unwinding). Used by
 * parallelFor to nest a pool lane's phases under its caller.
 */
class PhasePathScope
{
  public:
    explicit PhasePathScope(const std::string& path);
    ~PhasePathScope();

    PhasePathScope(const PhasePathScope&) = delete;
    PhasePathScope& operator=(const PhasePathScope&) = delete;

  private:
    std::string saved_;
};

/**
 * RAII phase scope: appends @p name (which must not contain '/') to
 * the thread's phase path, and on exit observes its wall time into
 * defaultRegistry().histogram("phase." + path) and pops the name
 * again. The span is mirrored onto the tracer's pipeline track when
 * tracing is enabled.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(std::string_view name);

    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;

    ~ScopedPhase();

  private:
    std::size_t parentLength_;  ///< path length before this phase
    double startUs_ = 0.0;      ///< tracer wall clock at entry
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

/** One node of the phase tree. */
struct PhaseNode
{
    std::string name;
    double seconds = 0.0;     ///< busy time, summed over lanes
    std::uint64_t count = 0;  ///< times the phase was entered
    std::vector<PhaseNode> children;  ///< sorted by name
};

/**
 * The phase tree recorded in @p snapshot's "phase." histograms. The
 * returned root is unnamed; phases never entered since the last
 * Registry::reset() (count 0) are left out.
 */
PhaseNode phaseTree(const RegistrySnapshot& snapshot);

}  // namespace mapp::obs

#endif  // MAPP_OBS_TIMER_H
