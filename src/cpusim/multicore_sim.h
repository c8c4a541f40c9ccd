/**
 * @file
 * The event-driven multicore co-run simulator.
 *
 * Each application is a queue of profiled phases. Active co-runners
 * split the logical cores and the LLC, negotiate memory bandwidth by
 * max-min fairness over their instantaneous demands, and suffer
 * queueing-inflated memory latency as channel utilization rises. The
 * engine advances the global clock from phase completion to phase
 * completion, re-dividing resources whenever the active set changes —
 * this is what produces alone vs. shared times and IPCs, and hence the
 * paper's fairness feature.
 */

#ifndef MAPP_CPUSIM_MULTICORE_SIM_H
#define MAPP_CPUSIM_MULTICORE_SIM_H

#include <string>
#include <vector>

#include "common/types.h"
#include "cpusim/core_model.h"
#include "isa/trace.h"

namespace mapp::cpusim {

/** Result of one application's (co-)run. */
struct AppCpuResult
{
    std::string app;          ///< benchmark name
    Seconds time = 0.0;       ///< completion time
    double ipc = 0.0;         ///< instructions / (time x frequency)
    InstCount instructions = 0;
};

/** Result of a bag co-run. */
struct BagCpuResult
{
    std::vector<AppCpuResult> apps;
    Seconds makespan = 0.0;  ///< completion of the last app
};

/** The multicore performance simulator. */
class MulticoreSim
{
  public:
    explicit MulticoreSim(CpuConfig config = {},
                          CacheModelParams cache_params = {});

    const CpuConfig& config() const { return config_; }

    /** Run one app alone with the given thread count. */
    AppCpuResult runAlone(const isa::WorkloadTrace& trace,
                          int threads) const;

    /**
     * Co-run a bag of apps, each with its own thread count. Apps start
     * together; resources re-divide as apps finish.
     */
    BagCpuResult runShared(
        const std::vector<const isa::WorkloadTrace*>& traces,
        const std::vector<int>& threads) const;

    /**
     * The thread count (from a power-of-two-ish candidate ladder capped
     * at the logical core count) minimizing the app's alone time — the
     * paper picks each app's best configuration the same way.
     */
    int bestThreadCount(const isa::WorkloadTrace& trace) const;

  private:
    CpuConfig config_;
    CacheModelParams cacheParams_;
};

}  // namespace mapp::cpusim

#endif  // MAPP_CPUSIM_MULTICORE_SIM_H
