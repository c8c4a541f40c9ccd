/**
 * @file
 * mapp_probe — the benchmark's in-process helper. It links the MAPP
 * libraries and calls their public functions directly:
 *
 *   mapp_probe campaign <out>         campaign bags, member features
 *                                     and the campaign dataset hash
 *   mapp_probe oracle-predict <in> <out>
 *                                     what `mapp_cli predict A B`
 *                                     should print, per "A B" line
 *   mapp_probe oracle-serve <in> <out>
 *                                     MultiAppPredictor::predict per
 *                                     query row, printed %.17g
 *   mapp_probe loadgen <socket> <rate> <warmup> <give_up_s> <pool>
 *                  <schedule> <out>   open-loop load over 2 connections
 *   mapp_probe spawn <budget_s> <commands> <out>
 *                                     run tab-separated command lines one
 *                                     at a time until the budget is spent,
 *                                     timing each from spawn to reap
 *   mapp_probe layers-cold <out.json> traced cold campaign
 *   mapp_probe layers-warm <hits> <misses> <out.json>
 *                                     traced one-shot predicts
 *   mapp_probe layers-serve <pool> <schedule> <out.json>
 *                                     traced serve-path calls
 *
 * Flags (before the command): --cache-dir=<dir> (required) and
 * --threads=<n>. Query-row lines for oracle-serve are either
 * "member A@a B@b" or "raw <cpu gpu mix...> <cpu gpu mix...> fairness".
 */

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/artifact_cache.h"
#include "cache/hash.h"
#include "common/parallel.h"
#include "ml/dataset_binary.h"
#include "obs/metrics.h"
#include "predictor/data_collection.h"
#include "predictor/predictor.h"
#include "serve/protocol.h"
#include "vision/registry.h"

using namespace mapp;
using predictor::BagMember;
using predictor::BagSpec;

namespace {

std::int64_t
nowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

[[noreturn]] void
die(const std::string& message)
{
    std::fprintf(stderr, "mapp_probe: %s\n", message.c_str());
    std::exit(1);
}

std::vector<std::string>
readLines(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot read " + path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

FILE*
openOut(const std::string& path)
{
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        die("cannot write " + path);
    return f;
}

BagMember
parseMember(const std::string& text)
{
    const auto at = text.find('@');
    if (at == std::string::npos)
        die("expected BENCH@BATCH, got " + text);
    return {vision::benchmarkFromName(text.substr(0, at)),
            std::stoi(text.substr(at + 1))};
}

std::string
memberLabel(const BagMember& m)
{
    return vision::benchmarkName(m.id) + "@" + std::to_string(m.batchSize);
}

std::vector<BagMember>
campaignMembers()
{
    std::set<BagMember> seen;
    for (const auto& spec : predictor::DataCollector::campaign91()) {
        seen.insert(spec.a);
        seen.insert(spec.b);
    }
    return {seen.begin(), seen.end()};
}

std::uint64_t
counter(const char* name)
{
    const auto snapshot = obs::defaultRegistry().snapshot();
    const auto* v = snapshot.findCounter(name);
    return v != nullptr ? *v : 0;
}

std::size_t
cacheEntries(const std::string& dir)
{
    std::size_t n = 0;
    for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
        n += e.is_regular_file() ? 1 : 0;
    return n;
}

double
cpuSeconds(const rusage& ru)
{
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// ---------------------------------------------------------------------
// Spans: one per call into a layer, kept in memory, written at exit.

struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    long parent = -1;       ///< index of the enclosing span, -1 = none
    std::uint64_t count = 1;  ///< calls covered (loops of tiny calls)
};

std::mutex spansMutex;
std::vector<Span> spans;

/** Time fn() as one span. */
template <typename Fn>
void
span(const std::string& name, long parent, Fn&& fn, std::uint64_t count = 1)
{
    Span s{name, nowNs(), 0, parent, count};
    fn();
    s.endNs = nowNs();
    std::lock_guard<std::mutex> lock(spansMutex);
    spans.push_back(std::move(s));
}

/** Open a span whose children are recorded before it closes. */
long
openSpan(const std::string& name, long parent)
{
    std::lock_guard<std::mutex> lock(spansMutex);
    spans.push_back({name, nowNs(), 0, parent, 1});
    return static_cast<long>(spans.size()) - 1;
}

void
closeSpan(long index)
{
    std::lock_guard<std::mutex> lock(spansMutex);
    spans[static_cast<std::size_t>(index)].endNs = nowNs();
}

void
writeSpans(const std::string& path,
           const std::vector<std::pair<std::string, double>>& values)
{
    FILE* f = openOut(path);
    std::fprintf(f, "{\"lanes\":%d,\"values\":{", parallel::maxThreads());
    for (std::size_t i = 0; i < values.size(); ++i)
        std::fprintf(f, "%s\"%s\":%.17g", i ? "," : "",
                     values[i].first.c_str(), values[i].second);
    std::fprintf(f, "},\"spans\":[");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto& s = spans[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"start_ns\":%" PRId64
                     ",\"end_ns\":%" PRId64 ",\"parent\":%ld,"
                     "\"count\":%" PRIu64 "}",
                     i ? "," : "", s.name.c_str(), s.startNs, s.endNs,
                     s.parent, s.count);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

// ---------------------------------------------------------------------
// campaign / oracles

std::string
campaignHash(const std::vector<predictor::DataPoint>& points)
{
    cache::Hasher h;
    ml::hashDataset(h, predictor::toDataset(points));
    return h.hex();
}

void
printFeatures(FILE* f, const predictor::AppFeatures& x)
{
    std::fprintf(f, " %.17g %.17g", x.cpuTime, x.gpuTime);
    for (double v : x.mixPercent)
        std::fprintf(f, " %.17g", v);
}

int
cmdCampaign(const std::string& out)
{
    predictor::DataCollector collector;
    const auto specs = predictor::DataCollector::campaign91();
    const auto points = collector.collectAll(specs);
    FILE* f = openOut(out);
    std::fprintf(f, "hash %s\n", campaignHash(points).c_str());
    for (const auto& s : specs)
        std::fprintf(f, "bag %s %s\n", memberLabel(s.a).c_str(),
                     memberLabel(s.b).c_str());
    for (const auto& m : campaignMembers()) {
        std::fprintf(f, "member %s", memberLabel(m).c_str());
        printFeatures(f, collector.appFeatures(m));
        std::fprintf(f, "\n");
    }
    std::fclose(f);
    return 0;
}

int
cmdOraclePredict(const std::string& in, const std::string& out)
{
    predictor::DataCollector collector;
    predictor::MultiAppPredictor model;
    model.train(collector.collectAll(predictor::DataCollector::campaign91()));
    FILE* f = openOut(out);
    for (const auto& line : readLines(in)) {
        std::istringstream ss(line);
        std::string a, b;
        ss >> a >> b;
        const auto truth = collector.collect({parseMember(a), parseMember(b)});
        std::fprintf(f, "%.6f %.6f\n", model.predict(truth),
                     truth.gpuBagTime);
    }
    std::fclose(f);
    return 0;
}

/** One oracle-serve query row -> BagQuery (member rows resolve like the
 *  server: canonical order, collector features, measured fairness). */
predictor::BagQuery
parseQueryRow(const std::string& line, predictor::DataCollector& collector)
{
    std::istringstream ss(line);
    std::string kind;
    ss >> kind;
    predictor::BagQuery q;
    if (kind == "member") {
        std::string a, b;
        ss >> a >> b;
        const auto bag = BagSpec{parseMember(a), parseMember(b)}.canonical();
        q.a = collector.appFeatures(bag.a);
        q.b = collector.appFeatures(bag.b);
        q.fairness = collector.measureFairness(bag);
        return q;
    }
    if (kind != "raw")
        die("bad query row: " + line);
    std::string tok;
    const auto next = [&]() {
        if (!(ss >> tok))
            die("short query row: " + line);
        return std::strtod(tok.c_str(), nullptr);
    };
    for (auto* x : {&q.a, &q.b}) {
        x->cpuTime = next();
        x->gpuTime = next();
        for (double& v : x->mixPercent)
            v = next();
    }
    q.fairness = next();
    return q;
}

int
cmdOracleServe(const std::string& in, const std::string& out)
{
    predictor::DataCollector collector;
    predictor::MultiAppPredictor model;
    model.train(collector.collectAll(predictor::DataCollector::campaign91()));
    FILE* f = openOut(out);
    for (const auto& line : readLines(in)) {
        const auto q = parseQueryRow(line, collector);
        std::fprintf(f, "%.17g\n", model.predict(q.a, q.b, q.fairness));
    }
    std::fclose(f);
    return 0;
}

// ---------------------------------------------------------------------
// loadgen: open loop, uniform schedule, 2 connections, 2 threads (one
// sends every request when it is due, one reads every response). At
// most kWindowRows query rows are unanswered at once, half the
// server's default queue: after a stall of the generator or the host,
// the overdue requests go out as answers free the window, not in one
// burst that overflows the queue. A request held back by the window is
// sent late, and its latency still counts from its due time.

constexpr std::int64_t kWindowRows = 512;

/** Query rows of one request body: a raw row names two apps, each
 *  with a cpu_time; a member query has one row and none. */
std::int64_t
rowsOf(const std::string& body)
{
    std::int64_t apps = 0;
    for (std::size_t at = 0;
         (at = body.find("\"cpu_time\"", at)) != std::string::npos; ++at)
        ++apps;
    return std::max<std::int64_t>(1, apps / 2);
}

int
connectUnix(const std::string& path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd < 0 || path.size() >= sizeof(addr.sun_path))
        die("cannot create socket for " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
        die("cannot connect to " + path);
    return fd;
}

void
writeAll(int fd, const std::string& data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n <= 0)
            die("write to server failed");
        off += static_cast<std::size_t>(n);
    }
}

void
sleepUntil(std::int64_t ns)
{
    timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                static_cast<long>(ns % 1'000'000'000)};
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
}

int
cmdLoadgen(const std::vector<std::string>& args)
{
    const std::string& socketPath = args[0];
    const double rate = std::strtod(args[1].c_str(), nullptr);
    const double warmupS = std::strtod(args[2].c_str(), nullptr);
    // Once the sender is this far behind it stops, and the unsent rest
    // counts as failed: past saturation it would never catch up.
    const auto giveUpNs =
        static_cast<std::int64_t>(std::strtod(args[3].c_str(), nullptr) * 1e9);
    const auto pool = readLines(args[4]);
    std::vector<std::size_t> schedule;
    for (const auto& line : readLines(args[5]))
        schedule.push_back(std::stoul(line));
    const std::size_t n = schedule.size();
    if (rate <= 0.0 || n == 0 || giveUpNs <= 0)
        die("loadgen needs a positive rate, give-up time and a schedule");
    std::vector<std::int64_t> poolRows;
    for (const auto& body : pool)
        poolRows.push_back(rowsOf(body));

    constexpr int kConnections = 2;
    int fds[kConnections];
    for (int& fd : fds)
        fd = connectUnix(socketPath);

    std::vector<std::int64_t> due(n), sent(n, 0), recv(n, 0);
    std::vector<std::string> reply(n);
    const double gapNs = 1e9 / rate;
    const std::int64_t t0 = nowNs() + 20'000'000;
    for (std::size_t i = 0; i < n; ++i)
        due[i] = t0 + static_cast<std::int64_t>(static_cast<double>(i) * gapNs);
    // The reader gives up on answers 5 s after the sender finished. It
    // must outlive the sender: a server blocked writing answers to a
    // client that stopped reading stops reading that client's requests.
    constexpr std::int64_t kGraceNs = 5'000'000'000;
    std::atomic<std::int64_t> senderDone{0};
    std::atomic<std::size_t> received{0};
    std::atomic<std::int64_t> answeredRows{0};
    std::thread reader([&]() {
        std::string buf[kConnections];
        pollfd pfd[kConnections];
        for (int c = 0; c < kConnections; ++c)
            pfd[c] = {fds[c], POLLIN, 0};
        char chunk[65536];
        while (received.load() < n &&
               (senderDone.load() == 0 || nowNs() < senderDone.load() + kGraceNs)) {
            if (::poll(pfd, kConnections, 50) <= 0)
                continue;
            for (int c = 0; c < kConnections; ++c) {
                if ((pfd[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                    continue;
                const ssize_t got = ::read(fds[c], chunk, sizeof(chunk));
                const std::int64_t at = nowNs();
                if (got <= 0) {
                    pfd[c].fd = -1;
                    continue;
                }
                buf[c].append(chunk, static_cast<std::size_t>(got));
                std::size_t start = 0;
                for (std::size_t nl; (nl = buf[c].find('\n', start)) !=
                                     std::string::npos;
                     start = nl + 1) {
                    // {"id":"<i>",...}
                    const std::size_t idx = std::strtoul(
                        buf[c].c_str() + start + 7, nullptr, 10);
                    if (idx < n && recv[idx] == 0) {
                        recv[idx] = at;
                        reply[idx].assign(buf[c], start, nl - start);
                        answeredRows.fetch_add(
                            poolRows.at(schedule[idx]));
                        received.fetch_add(1);
                    }
                }
                buf[c].erase(0, start);
            }
        }
    });

    std::string batch[kConnections];
    std::int64_t sentRows = 0;
    std::size_t windowWaits = 0;
    for (std::size_t i = 0; i < n;) {
        sleepUntil(due[i]);
        const std::int64_t rowsI = poolRows.at(schedule[i]);
        if (sentRows - answeredRows.load() + rowsI > kWindowRows) {
            ++windowWaits;
            while (sentRows - answeredRows.load() + rowsI > kWindowRows &&
                   nowNs() - due[i] <= giveUpNs)
                sleepUntil(nowNs() + 20'000);
        }
        const std::int64_t at = nowNs();
        if (at - due[i] > giveUpNs)
            break;
        const std::int64_t answered = answeredRows.load();
        std::size_t end = i;
        while (end < n && due[end] <= at &&
               sentRows - answered + poolRows.at(schedule[end]) <= kWindowRows) {
            sentRows += poolRows.at(schedule[end]);
            const auto& body = pool.at(schedule[end]);
            auto& out = batch[end % kConnections];
            out += "{\"id\":\"";
            out += std::to_string(end);
            out += "\",";
            out += body;
            out += '\n';
            sent[end] = at;
            ++end;
        }
        for (int c = 0; c < kConnections; ++c) {
            if (!batch[c].empty())
                writeAll(fds[c], batch[c]);
            batch[c].clear();
        }
        i = end;
    }
    senderDone.store(nowNs());
    reader.join();
    for (int fd : fds)
        ::close(fd);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double cpuS = cpuSeconds(ru);
    const std::int64_t warmupEnd =
        t0 + static_cast<std::int64_t>(warmupS * 1e9);
    FILE* f = openOut(args[6]);
    std::fprintf(f, "gen_cpu_s %.9f wall_s %.9f window_waits %zu\n", cpuS,
                 static_cast<double>(due[n - 1] - t0) * 1e-9, windowWaits);
    for (std::size_t i = 0; i < n; ++i) {
        // index, warm-up flag, lateness and latency from the due time
        // (ns; -1 = never sent / never answered), the raw response line.
        std::fprintf(f, "%zu %d %" PRId64 " %" PRId64 " %s\n", i,
                     due[i] < warmupEnd ? 1 : 0, sent[i] ? sent[i] - due[i] : -1,
                     recv[i] ? recv[i] - due[i] : -1,
                     recv[i] ? reply[i].c_str() : "-");
    }
    std::fclose(f);
    return 0;
}

// ---------------------------------------------------------------------
// spawn: one-shot processes timed without an interpreter in the loop

int
cmdSpawn(const std::vector<std::string>& args)
{
    const double budgetS = std::strtod(args[0].c_str(), nullptr);
    const auto lines = readLines(args[1]);
    FILE* f = openOut(args[2]);
    const std::int64_t end = nowNs() + static_cast<std::int64_t>(budgetS * 1e9);
    for (std::size_t i = 0; i < lines.size() && (i == 0 || nowNs() < end); ++i) {
        std::vector<std::string> argv;
        std::istringstream ss(lines[i]);
        for (std::string arg; std::getline(ss, arg, '\t');)
            argv.push_back(arg);
        std::vector<char*> cargv;
        for (auto& a : argv)
            cargv.push_back(a.data());
        cargv.push_back(nullptr);

        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0)
            die("pipe failed");
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
        posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
        const std::int64_t t0 = nowNs();
        pid_t pid = 0;
        if (::posix_spawn(&pid, cargv[0], &actions, nullptr, cargv.data(),
                          environ) != 0)
            die("cannot spawn " + argv[0]);
        posix_spawn_file_actions_destroy(&actions);
        ::close(fds[1]);
        std::string out;
        char buf[4096];
        for (ssize_t k; (k = ::read(fds[0], buf, sizeof(buf))) > 0;)
            out.append(buf, static_cast<std::size_t>(k));
        ::close(fds[0]);
        int status = 0;
        rusage ru{};
        ::wait4(pid, &status, 0, &ru);
        const std::int64_t wall = nowNs() - t0;
        const int rc = WIFEXITED(status) ? WEXITSTATUS(status)
                                         : 128 + WTERMSIG(status);
        // header: wall ns, CPU s, peak RSS KiB, exit code, output bytes
        std::fprintf(f, "run %" PRId64 " %.6f %ld %d %zu\n", wall,
                     cpuSeconds(ru), ru.ru_maxrss, rc, out.size());
        std::fwrite(out.data(), 1, out.size(), f);
    }
    std::fclose(f);
    return 0;
}

// ---------------------------------------------------------------------
// traced layer runs

int
cmdLayersCold(const std::string& out)
{
    const auto specs = predictor::DataCollector::campaign91();
    const auto members = campaignMembers();
    const long root = openSpan("cold", -1);
    predictor::DataCollector collector;

    // Vision: profile every (benchmark, batch) unit, one span per unit.
    long stage = openSpan("vision.profile", root);
    parallel::parallelFor(members.size(), [&](std::size_t i) {
        span("vision.unit", stage, [&] {
            vision::cachedTrace(members[i].id, members[i].batchSize);
        });
    });
    closeSpan(stage);

    span("predictor.member_features", root, [&] {
        parallel::parallelFor(members.size(), [&](std::size_t i) {
            collector.appFeatures(members[i]);
        });
    });
    const std::uint64_t events0 = counter("sim.events");
    span("sim.corun", root, [&] { collector.simulateBags(specs); });
    const double simEvents =
        static_cast<double>(counter("sim.events") - events0);
    std::vector<predictor::DataPoint> points;
    span("predictor.assemble", root,
         [&] { points = collector.collectAll(specs); });
    predictor::MultiAppPredictor model;
    span("ml.fit", root, [&] { model.train(points); });
    std::vector<std::string> names;
    for (auto id : vision::kAllBenchmarks)
        names.push_back(vision::benchmarkName(id));
    double loocvMean = 0.0;
    span("ml.loocv", root, [&] {
        loocvMean = predictor::MultiAppPredictor::looBenchmarkCv(
                        predictor::toDataset(points), {}, names)
                        .meanRelativeError();
    });
    closeSpan(root);

    // The same units unprofiled (generateBatch + runBenchmark with the
    // profiler's image sampling), to price the profiler itself. After
    // the "cold" span: the campaign never runs them.
    stage = openSpan("profiler.unprofiled", -1);
    parallel::parallelFor(members.size(), [&](std::size_t i) {
        const auto id = members[i].id;
        const int batch = members[i].batchSize;
        const bool perImage = id != vision::BenchmarkId::Svm &&
                              id != vision::BenchmarkId::Knn &&
                              id != vision::BenchmarkId::ObjRec;
        const int executed = perImage && batch > 4 && batch % 4 == 0 ? 4 : batch;
        span("profiler.unit", stage, [&] {
            const auto images = vision::generateBatch(
                id, executed, static_cast<std::uint64_t>(batch) * 31ull);
            vision::runBenchmark(id, images);
        });
    });
    closeSpan(stage);
    std::printf("hash %s\nloocv_mean %.2f\n", campaignHash(points).c_str(),
                loocvMean);
    writeSpans(out, {{"sim.events", simEvents},
                     {"cache.bytes_written",
                      static_cast<double>(counter("cache.bytes_written"))}});
    return 0;
}

/** One `mapp_cli predict A B` worth of library calls, as spans. */
void
tracedPredict(const BagSpec& spec, const char* collectName)
{
    const long root = openSpan("warm.predict", -1);
    predictor::DataCollector collector;
    std::vector<predictor::DataPoint> points;
    span("cache.campaign_load", root, [&] {
        points = collector.collectAll(predictor::DataCollector::campaign91());
    });
    predictor::MultiAppPredictor model;
    span("cache.model_load", root, [&] { model.train(points); });
    predictor::DataPoint truth;
    span(collectName, root, [&] { truth = collector.collect(spec); });
    span("ml.explain", root, [&] { model.explain(truth); });
    closeSpan(root);
}

int
cmdLayersWarm(const std::string& hitsPath, const std::string& missesPath,
              const std::string& out)
{
    const std::string dir = cache::defaultArtifactCache().directory();
    const auto bags = [](const std::string& path) {
        std::vector<BagSpec> specs;
        for (const auto& line : readLines(path)) {
            std::istringstream ss(line);
            std::string a, b;
            ss >> a >> b;
            specs.push_back({parseMember(a), parseMember(b)});
        }
        return specs;
    };
    const auto hits = bags(hitsPath);
    const auto misses = bags(missesPath);

    const std::uint64_t h0 = counter("cache.hits");
    const std::uint64_t m0 = counter("cache.misses");
    const std::uint64_t r0 = counter("cache.bytes_read");
    for (const auto& spec : hits)
        tracedPredict(spec, "predictor.collect_hit");
    const double hitLookups = static_cast<double>(
        counter("cache.hits") - h0 + counter("cache.misses") - m0);
    const double hitRatio =
        static_cast<double>(counter("cache.hits") - h0) / hitLookups;
    const double bytesRead =
        static_cast<double>(counter("cache.bytes_read") - r0) /
        static_cast<double>(hits.size());

    const std::size_t entries0 = cacheEntries(dir);
    for (const auto& spec : misses)
        tracedPredict(spec, "predictor.collect_miss");
    const double stores =
        static_cast<double>(cacheEntries(dir) - entries0) /
        static_cast<double>(misses.size());

    // explain() is microseconds: time a loop of calls as one span.
    predictor::DataCollector collector;
    predictor::MultiAppPredictor model;
    model.train(collector.collectAll(predictor::DataCollector::campaign91()));
    const auto truth = collector.collect(hits.front());
    constexpr std::uint64_t kCalls = 2000;
    span("ml.explain_loop", -1, [&] {
        for (std::uint64_t i = 0; i < kCalls; ++i)
            model.explain(truth);
    }, kCalls);
    writeSpans(out, {{"cache.hit_ratio", hitRatio},
                     {"cache.lookups_per_hit_predict",
                      hitLookups / static_cast<double>(hits.size())},
                     {"cache.bytes_read_per_hit_predict", bytesRead},
                     {"cache.stores_per_miss_predict", stores}});
    return 0;
}

int
cmdLayersServe(const std::string& poolPath, const std::string& schedulePath,
               const std::string& out)
{
    const auto pool = readLines(poolPath);
    std::vector<std::string> lines;
    for (const auto& idx : readLines(schedulePath))
        lines.push_back("{\"id\":\"" + std::to_string(lines.size()) + "\"," +
                        pool.at(std::stoul(idx)));
    predictor::DataCollector collector;
    predictor::MultiAppPredictor model;
    model.train(collector.collectAll(predictor::DataCollector::campaign91()));

    std::vector<serve::Request> parsed(lines.size());
    span("serve.parse_loop", -1, [&] {
        for (std::size_t i = 0; i < lines.size(); ++i)
            parsed[i] = serve::parseRequest(lines[i]).value();
    }, lines.size());
    span("serve.format_loop", -1, [&] {
        for (const auto& r : parsed) {
            const std::vector<double> values(r.queries.size(), 0.123456789);
            serve::predictResponse(r.id, r.op, values, 1, 12.345);
        }
    }, parsed.size());

    // Member-form resolution against a warm collector (a resident
    // server resolves repeated bags from its in-memory memos).
    const auto specs = predictor::DataCollector::campaign91();
    const auto resolve = [&](const BagSpec& s) {
        const auto bag = s.canonical();
        predictor::BagQuery q{collector.appFeatures(bag.a),
                              collector.appFeatures(bag.b),
                              collector.measureFairness(bag)};
        return q;
    };
    std::vector<predictor::BagQuery> queries;
    for (const auto& s : specs)
        queries.push_back(resolve(s));
    constexpr int kRounds = 20;
    span("predictor.resolve_member_loop", -1, [&] {
        for (int r = 0; r < kRounds; ++r)
            for (const auto& s : specs)
                resolve(s);
    }, kRounds * specs.size());

    constexpr std::uint64_t kRows = 64 * 1024;
    std::vector<predictor::BagQuery> one(1);
    span("ml.infer_b1_loop", -1, [&] {
        for (std::uint64_t i = 0; i < kRows; ++i) {
            one[0] = queries[i % queries.size()];
            model.predictBatch(one);
        }
    }, kRows);
    std::vector<predictor::BagQuery> block(32);
    span("ml.infer_b32_loop", -1, [&] {
        for (std::uint64_t i = 0; i < kRows / 32; ++i) {
            for (std::size_t j = 0; j < 32; ++j)
                block[j] = queries[(i * 32 + j) % queries.size()];
            model.predictBatch(block);
        }
    }, kRows);
    writeSpans(out, {});
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--cache-dir=", 0) == 0)
            cache::defaultArtifactCache().setDirectory(arg.substr(12));
        else if (arg.rfind("--threads=", 0) == 0)
            parallel::setMaxThreads(std::stoi(arg.substr(10)));
        else
            args.push_back(arg);
    }
    if (cache::defaultArtifactCache().directory().empty())
        die("--cache-dir=<dir> is required");
    const std::string cmd = args.empty() ? "" : args[0];
    const std::vector<std::string> rest(args.begin() + (args.empty() ? 0 : 1),
                                        args.end());
    try {
        if (cmd == "campaign" && rest.size() == 1)
            return cmdCampaign(rest[0]);
        if (cmd == "oracle-predict" && rest.size() == 2)
            return cmdOraclePredict(rest[0], rest[1]);
        if (cmd == "oracle-serve" && rest.size() == 2)
            return cmdOracleServe(rest[0], rest[1]);
        if (cmd == "loadgen" && rest.size() == 7)
            return cmdLoadgen(rest);
        if (cmd == "spawn" && rest.size() == 3)
            return cmdSpawn(rest);
        if (cmd == "layers-cold" && rest.size() == 1)
            return cmdLayersCold(rest[0]);
        if (cmd == "layers-warm" && rest.size() == 3)
            return cmdLayersWarm(rest[0], rest[1], rest[2]);
        if (cmd == "layers-serve" && rest.size() == 3)
            return cmdLayersServe(rest[0], rest[1], rest[2]);
    } catch (const std::exception& e) {
        die(e.what());
    }
    die("usage: see the header of perfbench/probe.cc");
}
