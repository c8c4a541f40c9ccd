#include "cpusim/multicore_sim.h"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "common/log.h"
#include "cpusim/memory_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/corun_engine.h"

namespace mapp::cpusim {

MulticoreSim::MulticoreSim(CpuConfig config, CacheModelParams cache_params)
    : config_(config), cacheParams_(cache_params)
{
}

namespace {

/**
 * The CPU side of the shared co-run engine: active apps split the
 * logical cores and the LLC equally; the DRAM channel capacity is the
 * configured bandwidth, with M/M/1-style queueing as utilization rises.
 */
struct CpuCorunModel
{
    static constexpr const char* kName = "cpusim";
    static constexpr const char* kClientWord = "app";
    using Rate = CpuPhaseRate;

    struct Partition
    {
        int residents = 0;
        int coresEach = 1;
        Bytes llcEach = 0;
    };

    const CpuConfig& config;
    const CacheModelParams& cacheParams;
    std::span<const int> threads;

    Partition makePartition(int n) const
    {
        Partition p;
        p.residents = n;
        // Divide cores and LLC equally among active apps.
        p.coresEach = std::max(config.logicalCores() / n, 1);
        p.llcEach = config.llcSize / static_cast<Bytes>(n);
        return p;
    }

    Rate phaseRate(std::size_t client, const isa::KernelPhase& phase,
                   const Partition& p) const
    {
        CpuAllocation a;
        a.threads = std::max(threads[client], 1);
        a.logicalCores = p.coresEach;
        a.llcShare = p.llcEach;
        return cpuPhaseRate(phase, a, config, cacheParams);
    }

    double demand(const Rate& rate) const
    {
        return phaseDemandFromRate(rate);
    }

    double capacity(const Partition&) const
    {
        return config.memBandwidth;
    }

    double queueFactor(double total_demand, const Partition&) const
    {
        const double utilization =
            std::min(total_demand / config.memBandwidth, 1.0);
        return queueingFactor(utilization);
    }

    Seconds finishTime(const Rate& rate, double bandwidth_share,
                       double queue) const
    {
        return timePhaseFromRate(rate, bandwidth_share, queue).time;
    }

    void tracePartition(obs::Tracer& tracer, const Partition& p,
                        Seconds clock, int track_pid) const
    {
        tracer.instantEvent(
            "re-partition", "cpusim.partition", clock * 1e6, track_pid,
            0,
            {obs::TraceArg::num("residents", p.residents),
             obs::TraceArg::num("cores_each", p.coresEach),
             obs::TraceArg::num("llc_bytes_each",
                                static_cast<double>(p.llcEach))});
    }
};

}  // namespace

BagCpuResult
MulticoreSim::runShared(const std::vector<const isa::WorkloadTrace*>& traces,
                        const std::vector<int>& threads) const
{
    if (traces.empty())
        fatal("MulticoreSim::runShared: empty bag");
    if (traces.size() != threads.size())
        fatal("MulticoreSim::runShared: traces/threads size mismatch");
    for (const auto* trace : traces) {
        if (trace == nullptr || trace->empty())
            fatal("MulticoreSim::runShared: empty trace in bag");
    }

    const CpuCorunModel model{config_, cacheParams_, threads};
    thread_local std::vector<Seconds> finish;
    finish.resize(traces.size());
    const sim::CorunStats stats = sim::runCorun(
        model,
        std::span<const isa::WorkloadTrace* const>(traces.data(),
                                                   traces.size()),
        finish);

    // Flush the run's counters in one batch.
    {
        static auto& registry = obs::defaultRegistry();
        static auto& runs = registry.counter("cpusim.runs");
        static auto& simEvents = registry.counter("cpusim.sim_events");
        static auto& repartitions =
            registry.counter("cpusim.repartitions");
        static auto& phasesCompleted =
            registry.counter("cpusim.phases_completed");
        runs.add(1);
        simEvents.add(stats.events);
        repartitions.add(stats.repartitions);
        phasesCompleted.add(stats.phasesCompleted);
    }

    BagCpuResult result;
    result.apps.reserve(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
        AppCpuResult r;
        r.app = traces[i]->app();
        r.time = finish[i];
        r.instructions = traces[i]->totalInstructions();
        r.ipc = finish[i] > 0.0
                    ? static_cast<double>(r.instructions) /
                          (finish[i] * config_.frequency)
                    : 0.0;
        result.makespan = std::max(result.makespan, r.time);
        result.apps.push_back(std::move(r));
    }
    return result;
}

AppCpuResult
MulticoreSim::runAlone(const isa::WorkloadTrace& trace, int threads) const
{
    const auto bag = runShared({&trace}, {threads});
    return bag.apps.front();
}

int
MulticoreSim::bestThreadCount(const isa::WorkloadTrace& trace) const
{
    static constexpr int kCandidates[] = {1, 2, 4, 8, 12, 16, 24, 32, 48};
    int best = 1;
    Seconds bestTime = std::numeric_limits<Seconds>::infinity();
    for (int t : kCandidates) {
        if (t > config_.logicalCores())
            break;
        const Seconds time = runAlone(trace, t).time;
        if (time < bestTime) {
            bestTime = time;
            best = t;
        }
    }
    return best;
}

}  // namespace mapp::cpusim
