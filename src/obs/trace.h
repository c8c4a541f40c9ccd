/**
 * @file
 * Event tracing for the simulators and the predictor pipeline.
 *
 * A Tracer records timestamped events — duration spans (a client's
 * kernel phase on the simulated GPU, a pipeline stage), instant events
 * (a resource re-partition, a scheduler pairing decision) and counter
 * samples — and exports them as Chrome-trace JSON (loadable in
 * chrome://tracing or https://ui.perfetto.dev).
 *
 * The tracer is disabled by default; every record call checks one
 * atomic flag first, so instrumentation left in hot paths costs a
 * single predictable branch when tracing is off. Timestamps are
 * caller-provided microseconds: the simulators pass *simulated* time,
 * the pipeline passes wall time (wallTimeUs()). Tracks are keyed by
 * (pid, tid) like in Chrome: beginTrack() allocates a fresh pid per
 * simulated run so concurrent/consecutive runs stay separable.
 */

#ifndef MAPP_OBS_TRACE_H
#define MAPP_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace mapp::obs {

/** One key/value annotation on a trace event. */
struct TraceArg
{
    std::string key;
    std::string text;      ///< used when !numeric
    double number = 0.0;   ///< used when numeric
    bool numeric = false;

    static TraceArg str(std::string k, std::string v)
    {
        TraceArg a;
        a.key = std::move(k);
        a.text = std::move(v);
        return a;
    }

    static TraceArg num(std::string k, double v)
    {
        TraceArg a;
        a.key = std::move(k);
        a.number = v;
        a.numeric = true;
        return a;
    }
};

/** Chrome-trace event kinds the tracer records. */
enum class TraceEventKind {
    Complete,  ///< a span: "ph":"X" with ts + dur
    Instant,   ///< a point: "ph":"i"
    Counter,   ///< a sampled value: "ph":"C"
    Metadata,  ///< process/thread naming: "ph":"M"
};

/** One recorded event. */
struct TraceEvent
{
    std::string name;
    std::string category;
    TraceEventKind kind = TraceEventKind::Instant;
    double tsUs = 0.0;   ///< start timestamp, microseconds
    double durUs = 0.0;  ///< span duration (Complete only)
    int pid = 0;
    int tid = 0;
    std::vector<TraceArg> args;
};

/** Well-known pids for the fixed (non per-run) tracks. */
inline constexpr int kPipelineTrackPid = 1;
inline constexpr int kSchedulerTrackPid = 2;

/** Thread-safe append-only event recorder. */
class Tracer
{
  public:
    /** Cheap gate for instrumentation sites (one relaxed load). */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /** Drop all recorded events (the enabled flag is untouched). */
    void clear();

    /** Number of recorded events. */
    std::size_t size() const;

    /**
     * Allocate a fresh pid and name its track (emits a process_name
     * metadata event). Use one track per simulated run.
     */
    int beginTrack(const std::string& name);

    /** Name one tid within a track (thread_name metadata event). */
    void nameThread(int pid, int tid, const std::string& name);

    /** Record a duration span. No-op while disabled. */
    void completeEvent(std::string name, std::string category,
                       double ts_us, double dur_us, int pid, int tid,
                       std::vector<TraceArg> args = {});

    /** Record an instant event. No-op while disabled. */
    void instantEvent(std::string name, std::string category,
                      double ts_us, int pid, int tid,
                      std::vector<TraceArg> args = {});

    /** Record a counter sample. No-op while disabled. */
    void counterEvent(std::string name, double ts_us, int pid,
                      std::vector<TraceArg> values);

    /** Copy of every recorded event, in record order. */
    std::vector<TraceEvent> snapshot() const;

    /** Microseconds of wall time since this tracer was constructed. */
    double wallTimeUs() const;

    /** The full Chrome-trace JSON document. */
    std::string chromeTraceJson() const;

    /** Write chromeTraceJson() to @p path. @return false on I/O error. */
    bool writeChromeTrace(const std::string& path) const;

  private:
    void record(TraceEvent event);

    std::atomic<bool> enabled_{false};
    std::atomic<int> nextPid_{16};  // per-run tracks; fixed pids below
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
};

/** The process-wide tracer used by the built-in instrumentation. */
Tracer& tracer();

}  // namespace mapp::obs

#endif  // MAPP_OBS_TRACE_H
