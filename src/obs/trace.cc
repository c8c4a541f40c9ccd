#include "obs/trace.h"

#include "common/file_io.h"
#include "obs/json_util.h"

namespace mapp::obs {

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

int
Tracer::beginTrack(const std::string& name)
{
    const int pid = nextPid_.fetch_add(1, std::memory_order_relaxed);
    TraceEvent e;
    e.name = "process_name";
    e.kind = TraceEventKind::Metadata;
    e.pid = pid;
    e.args.push_back(TraceArg::str("name", name));
    record(std::move(e));
    return pid;
}

void
Tracer::nameThread(int pid, int tid, const std::string& name)
{
    TraceEvent e;
    e.name = "thread_name";
    e.kind = TraceEventKind::Metadata;
    e.pid = pid;
    e.tid = tid;
    e.args.push_back(TraceArg::str("name", name));
    record(std::move(e));
}

void
Tracer::completeEvent(std::string name, std::string category,
                      double ts_us, double dur_us, int pid, int tid,
                      std::vector<TraceArg> args)
{
    if (!enabled())
        return;
    TraceEvent e;
    e.name = std::move(name);
    e.category = std::move(category);
    e.kind = TraceEventKind::Complete;
    e.tsUs = ts_us;
    e.durUs = dur_us;
    e.pid = pid;
    e.tid = tid;
    e.args = std::move(args);
    record(std::move(e));
}

void
Tracer::instantEvent(std::string name, std::string category,
                     double ts_us, int pid, int tid,
                     std::vector<TraceArg> args)
{
    if (!enabled())
        return;
    TraceEvent e;
    e.name = std::move(name);
    e.category = std::move(category);
    e.kind = TraceEventKind::Instant;
    e.tsUs = ts_us;
    e.pid = pid;
    e.tid = tid;
    e.args = std::move(args);
    record(std::move(e));
}

void
Tracer::record(TraceEvent event)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

std::vector<TraceEvent>
Tracer::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
}

double
Tracer::wallTimeUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

namespace {

char
phaseLetter(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::Complete:
        return 'X';
      case TraceEventKind::Instant:
        return 'i';
      case TraceEventKind::Metadata:
        return 'M';
    }
    return 'i';
}

void
appendArgs(std::string& out, const std::vector<TraceArg>& args)
{
    out += "\"args\":{";
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (i > 0)
            out += ',';
        appendJsonString(out, args[i].key);
        out += ':';
        if (args[i].numeric)
            appendJsonNumber(out, args[i].number);
        else
            appendJsonString(out, args[i].text);
    }
    out += '}';
}

}  // namespace

std::string
Tracer::chromeTraceJson() const
{
    const auto events = snapshot();
    std::string out;
    out.reserve(events.size() * 96 + 64);
    out += "{\"traceEvents\":[";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent& e = events[i];
        if (i > 0)
            out += ',';
        out += "\n{\"name\":";
        appendJsonString(out, e.name);
        if (!e.category.empty()) {
            out += ",\"cat\":";
            appendJsonString(out, e.category);
        }
        out += ",\"ph\":\"";
        out += phaseLetter(e.kind);
        out += '"';
        if (e.kind != TraceEventKind::Metadata) {
            out += ",\"ts\":";
            appendJsonNumber(out, e.tsUs);
        }
        if (e.kind == TraceEventKind::Complete) {
            out += ",\"dur\":";
            appendJsonNumber(out, e.durUs);
        }
        if (e.kind == TraceEventKind::Instant)
            out += ",\"s\":\"t\"";
        out += ",\"pid\":" + std::to_string(e.pid);
        out += ",\"tid\":" + std::to_string(e.tid);
        out += ',';
        appendArgs(out, e.args);
        out += '}';
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

bool
Tracer::writeChromeTrace(const std::string& path) const
{
    return writeFileAtomic(path, chromeTraceJson());
}

Tracer&
tracer()
{
    static Tracer instance;
    return instance;
}

}  // namespace mapp::obs
