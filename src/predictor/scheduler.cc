#include "predictor/scheduler.h"

#include "predictor/quality.h"

#include <algorithm>
#include <limits>

#include "common/log.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mapp::predictor {

namespace {

/** Record one pairing decision on the scheduler's trace track. */
void
tracePairing(const char* policy, const ScheduledBag& bag)
{
    obs::Tracer& tracer = obs::tracer();
    if (!tracer.enabled())
        return;
    tracer.instantEvent(
        "pair " + bag.spec.label(), "scheduler.pairing",
        tracer.wallTimeUs(), obs::kSchedulerTrackPid, 0,
        {obs::TraceArg::str("policy", policy),
         obs::TraceArg::num("predicted_seconds", bag.predictedSeconds)});
}

}  // namespace

CoScheduler::CoScheduler(const MultiAppPredictor& model,
                         DataCollector& collector)
    : model_(model), collector_(collector)
{
}

CoScheduler::Round
CoScheduler::makeRound(const std::vector<BagMember>& jobs) const
{
    Round round;
    std::vector<BagMember> distinct;
    for (const auto& job : jobs) {
        if (round.features.emplace(job, nullptr).second)
            distinct.push_back(job);
    }
    // Warm each distinct member's collector entry concurrently; the
    // collector's cache hands back stable references, so the round
    // just keeps the pointers.
    parallel::parallelFor(distinct.size(), [&](std::size_t i) {
        collector_.appFeatures(distinct[i]);
    });
    for (auto& [member, features] : round.features)
        features = &collector_.appFeatures(member);
    return round;
}

std::vector<double>
CoScheduler::scoreBags(const std::vector<BagSpec>& specs,
                       Round& round) const
{
    // Specs must already be canonical (the cache key is the ordered
    // member pair). Collect the pairs this round has not scored yet.
    std::vector<std::pair<BagMember, BagMember>> fresh;
    for (const auto& spec : specs) {
        const auto key = std::make_pair(spec.a, spec.b);
        if (round.scores.emplace(key, 0.0).second)
            fresh.push_back(key);
    }
    if (!fresh.empty()) {
        // The CPU-side fairness measurement dominates a candidate's
        // cost; one collector batch fans the uncached pairs across
        // the pool lanes (GPU runs excluded — scoring is pre-GPU).
        std::vector<BagSpec> freshSpecs;
        freshSpecs.reserve(fresh.size());
        for (const auto& [a, b] : fresh)
            freshSpecs.push_back(BagSpec{a, b});
        const std::vector<double> fairness =
            collector_.measureFairnessBatch(freshSpecs);
        std::vector<BagQuery> queries;
        queries.reserve(fresh.size());
        for (std::size_t i = 0; i < fresh.size(); ++i)
            queries.push_back({*round.features.at(fresh[i].first),
                               *round.features.at(fresh[i].second),
                               fairness[i]});
        const auto predicted = model_.predictBatch(queries);
        for (std::size_t i = 0; i < fresh.size(); ++i)
            round.scores[fresh[i]] = predicted[i];
    }
    std::vector<double> out;
    out.reserve(specs.size());
    for (const auto& spec : specs)
        out.push_back(round.scores.at(std::make_pair(spec.a, spec.b)));
    return out;
}

void
CoScheduler::finalize(Schedule& schedule, Round& round) const
{
    std::vector<BagSpec> specs;
    specs.reserve(schedule.bags.size());
    for (const auto& bag : schedule.bags)
        specs.push_back(bag.spec.canonical());
    const auto scores = scoreBags(specs, round);

    schedule.predictedTotalSeconds = 0.0;
    for (std::size_t i = 0; i < schedule.bags.size(); ++i) {
        schedule.bags[i].predictedSeconds = scores[i];
        schedule.predictedTotalSeconds += scores[i];
    }
    if (schedule.leftover) {
        schedule.predictedTotalSeconds +=
            round.features.at(*schedule.leftover)->gpuTime;
    }
}

Schedule
CoScheduler::pairFifo(std::vector<BagMember> jobs, Round& round) const
{
    Schedule schedule;
    for (std::size_t i = 0; i + 1 < jobs.size(); i += 2)
        schedule.bags.push_back({BagSpec{jobs[i], jobs[i + 1]}, 0.0});
    if (jobs.size() % 2 == 1)
        schedule.leftover = jobs.back();
    finalize(schedule, round);
    return schedule;
}

Schedule
CoScheduler::pairGreedy(std::vector<BagMember> jobs, Round& round) const
{
    Schedule schedule;
    while (jobs.size() >= 2) {
        const BagMember head = jobs.front();
        jobs.erase(jobs.begin());
        // Score the head against every remaining partner in one
        // batch instead of one predict() per pair.
        std::vector<BagSpec> candidates;
        candidates.reserve(jobs.size());
        for (const auto& partner : jobs)
            candidates.push_back(BagSpec{head, partner}.canonical());
        const auto scores = scoreBags(candidates, round);

        std::size_t bestIdx = 0;
        double bestPred = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < scores.size(); ++i) {
            if (scores[i] < bestPred) {
                bestPred = scores[i];
                bestIdx = i;
            }
        }
        schedule.bags.push_back({candidates[bestIdx], bestPred});
        jobs.erase(jobs.begin() + static_cast<long>(bestIdx));
    }
    if (!jobs.empty())
        schedule.leftover = jobs.front();
    finalize(schedule, round);
    return schedule;
}

namespace {

/** Recursively enumerate perfect matchings, tracking the best total. */
void
bestMatching(std::vector<BagMember>& pool,
             std::vector<ScheduledBag>& current, double currentTotal,
             const std::function<double(const BagSpec&)>& cost,
             double& bestTotal, std::vector<ScheduledBag>& best)
{
    if (pool.size() < 2) {
        if (currentTotal < bestTotal) {
            bestTotal = currentTotal;
            best = current;
        }
        return;
    }
    if (currentTotal >= bestTotal)
        return;  // prune

    const BagMember head = pool.front();
    pool.erase(pool.begin());
    for (std::size_t i = 0; i < pool.size(); ++i) {
        const BagMember partner = pool[i];
        pool.erase(pool.begin() + static_cast<long>(i));

        const BagSpec spec = BagSpec{head, partner}.canonical();
        const double c = cost(spec);
        current.push_back({spec, c});
        bestMatching(pool, current, currentTotal + c, cost, bestTotal,
                     best);
        current.pop_back();

        pool.insert(pool.begin() + static_cast<long>(i), partner);
    }
    pool.insert(pool.begin(), head);
}

}  // namespace

Schedule
CoScheduler::pairExhaustive(std::vector<BagMember> jobs,
                            Round& round) const
{
    if (jobs.size() > 14)
        fatal("CoScheduler: exhaustive pairing limited to 14 jobs");

    Schedule schedule;
    if (jobs.size() % 2 == 1) {
        schedule.leftover = jobs.back();
        jobs.pop_back();
    }

    // Score every unordered pair up front in one batch; the matching
    // enumeration then reads predictions from the round cache.
    std::vector<BagSpec> pairs;
    pairs.reserve(jobs.size() * (jobs.size() + 1) / 2);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        for (std::size_t j = i + 1; j < jobs.size(); ++j)
            pairs.push_back(BagSpec{jobs[i], jobs[j]}.canonical());
    scoreBags(pairs, round);
    auto cost = [&round](const BagSpec& spec) {
        return round.scores.at(std::make_pair(spec.a, spec.b));
    };

    double bestTotal = std::numeric_limits<double>::infinity();
    std::vector<ScheduledBag> best;
    std::vector<ScheduledBag> current;
    bestMatching(jobs, current, 0.0, cost, bestTotal, best);
    schedule.bags = std::move(best);
    finalize(schedule, round);
    return schedule;
}

Schedule
CoScheduler::schedule(const std::vector<BagMember>& jobs,
                      PairingPolicy policy) const
{
    Round round = makeRound(jobs);
    const auto run = [&](const char* name, Schedule s) {
        obs::defaultRegistry().counter("scheduler.schedules").add(1);
        obs::defaultRegistry()
            .counter("scheduler.bags_paired")
            .add(s.bags.size());
        for (const auto& bag : s.bags)
            tracePairing(name, bag);
        return s;
    };
    switch (policy) {
      case PairingPolicy::Fifo:
        return run("fifo", pairFifo(jobs, round));
      case PairingPolicy::Greedy:
        return run("greedy", pairGreedy(jobs, round));
      case PairingPolicy::Exhaustive:
        return run("exhaustive", pairExhaustive(jobs, round));
    }
    panic("CoScheduler::schedule: invalid policy");
}

double
CoScheduler::measure(const Schedule& schedule) const
{
    // Fan the schedule's remaining bag measurements (the GPU runs;
    // the CPU side is warm from scoring) across the pool up front.
    std::vector<BagSpec> specs;
    specs.reserve(schedule.bags.size());
    for (const auto& bag : schedule.bags)
        specs.push_back(bag.spec);
    collector_.simulateBags(specs);

    double total = 0.0;
    std::vector<double> actual;
    std::vector<double> predicted;
    actual.reserve(schedule.bags.size());
    predicted.reserve(schedule.bags.size());
    for (const auto& bag : schedule.bags) {
        const double measured = collector_.collect(bag.spec).gpuBagTime;
        total += measured;
        actual.push_back(measured);
        predicted.push_back(bag.predictedSeconds);
    }
    if (schedule.leftover)
        total += collector_.appFeatures(*schedule.leftover).gpuTime;
    // Measuring a scored schedule is ground truth arriving for the
    // bag predictions — feed the online quality monitor.
    ModelQualityMonitor::global().observePairs(actual, predicted);
    return total;
}

}  // namespace mapp::predictor
