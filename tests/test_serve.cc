/**
 * @file
 * The resident prediction service end to end: micro-batched answers
 * bit-identical to direct predict() calls, bounded-queue admission
 * control, per-request deadlines, atomic hot reload under load, the
 * JSONL protocol codec, and concurrent clients hammering a real
 * Unix-domain socket. Runs under `ctest -L parallel` (TSan) — every
 * path here is exercised from multiple threads by design.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "predictor/data_collection.h"
#include "predictor/predictor.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"

namespace {

using namespace mapp;
using serve::JobResult;
using serve::PredictionService;
using serve::ServiceOptions;

// ---------------------------------------------------------------------------
// Synthetic model: deterministic features and targets, so two models
// trained from the same seed are identical and predictions can be
// compared bit for bit.

predictor::AppFeatures
randomApp(Rng& rng, int index)
{
    predictor::AppFeatures app;
    app.app = "app" + std::to_string(index % 7);
    app.batchSize = static_cast<int>(rng.uniformInt(1, 100));
    app.cpuTime = rng.uniform(0.01, 2.0);
    app.gpuTime = rng.uniform(0.01, 1.0);
    double total = 0.0;
    for (auto& m : app.mixPercent) {
        m = rng.uniform(0.0, 1.0);
        total += m;
    }
    for (auto& m : app.mixPercent)
        m = 100.0 * m / total;
    return app;
}

std::vector<predictor::DataPoint>
syntheticCampaign(unsigned seed, int rows)
{
    Rng rng(seed);
    std::vector<predictor::DataPoint> points;
    points.reserve(static_cast<std::size_t>(rows));
    for (int i = 0; i < rows; ++i) {
        predictor::DataPoint p;
        p.a = randomApp(rng, i);
        p.b = randomApp(rng, i + 3);
        p.fairness = rng.uniform(0.2, 1.0);
        p.gpuBagTime = p.a.gpuTime + p.b.gpuTime +
                       0.25 * p.fairness * p.a.gpuTime;
        points.push_back(std::move(p));
    }
    return points;
}

std::shared_ptr<const predictor::MultiAppPredictor>
trainModel(unsigned seed)
{
    auto model = std::make_shared<predictor::MultiAppPredictor>();
    model->train(syntheticCampaign(seed, 64));
    return model;
}

std::vector<predictor::BagQuery>
randomQueries(unsigned seed, int n)
{
    Rng rng(seed);
    std::vector<predictor::BagQuery> queries;
    queries.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        predictor::BagQuery q;
        q.a = randomApp(rng, i);
        q.b = randomApp(rng, i + 5);
        q.fairness = rng.uniform(0.2, 1.0);
        queries.push_back(std::move(q));
    }
    return queries;
}

/** Collects one JobResult per submitted job and counts arrivals. */
struct ResultSink
{
    explicit ResultSink(std::size_t n) : results(n) {}

    serve::JobCallback slot(std::size_t i)
    {
        return [this, i](JobResult r) {
            results[i] = std::move(r);
            arrived.fetch_add(1, std::memory_order_acq_rel);
        };
    }

    std::vector<JobResult> results;
    std::atomic<std::size_t> arrived{0};
};

/**
 * Occupies the batch worker: the callback of the one job it submits
 * runs on the worker thread and blocks there until release(), so
 * every job submitted meanwhile stays queued. Declare it after the
 * service, so an early test exit releases the worker before the
 * service's destructor drains it.
 */
class WorkerHold
{
  public:
    explicit WorkerHold(PredictionService& service)
    {
        // The callback shares the state, so it stays valid however
        // the worker and this object interleave their exits.
        EXPECT_TRUE(service.submit(
            randomQueries(7, 1), 0.0, [state = state_](JobResult r) {
                state->result = std::move(r);
                state->entered.count_down();
                state->released.wait();
            }));
        state_->entered.wait();
    }

    ~WorkerHold() { release(); }

    void release()
    {
        if (!releasedOnce_) {
            releasedOnce_ = true;
            state_->released.count_down();
        }
    }

    /** The held job's answer; read it after the service drained. */
    const JobResult& result() const { return state_->result; }

  private:
    struct State
    {
        std::latch entered{1};
        std::latch released{1};
        JobResult result;
    };
    std::shared_ptr<State> state_ = std::make_shared<State>();
    bool releasedOnce_ = false;
};

// ---------------------------------------------------------------------------
// PredictionService

TEST(PredictionService, MicroBatchedAnswersBitIdenticalToDirectPredict)
{
    const auto model = trainModel(11);
    ServiceOptions options;
    options.batchRows = 8;
    PredictionService service(model, nullptr, options);

    const auto queries = randomQueries(12, 48);
    ResultSink sink(queries.size());
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t)
        clients.emplace_back([&, t] {
            for (std::size_t i = static_cast<std::size_t>(t);
                 i < queries.size(); i += 4)
                EXPECT_TRUE(
                    service.submit({queries[i]}, 0.0, sink.slot(i)));
        });
    for (auto& t : clients)
        t.join();
    service.drain();
    ASSERT_EQ(sink.arrived.load(), queries.size());

    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto& r = sink.results[i];
        ASSERT_TRUE(r.ok) << r.error;
        ASSERT_EQ(r.predictedSeconds.size(), 1u);
        EXPECT_EQ(r.predictedSeconds[0],
                  model->predict(queries[i].a, queries[i].b,
                                 queries[i].fairness))
            << "row " << i;
        EXPECT_EQ(r.epoch, 1u);
    }
}

TEST(PredictionService, MultiRowJobsKeepSubmitOrderWithinTheJob)
{
    const auto model = trainModel(21);
    ServiceOptions options;
    options.batchRows = 4;
    PredictionService service(model, nullptr, options);

    const auto queries = randomQueries(22, 10);
    ResultSink sink(1);
    ASSERT_TRUE(service.submit(queries, 0.0, sink.slot(0)));
    service.drain();
    ASSERT_EQ(sink.arrived.load(), 1u);
    const auto& r = sink.results[0];
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.predictedSeconds.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_EQ(r.predictedSeconds[i],
                  model->predict(queries[i].a, queries[i].b,
                                 queries[i].fairness));
}

TEST(PredictionService, FullQueueRejectsSynchronously)
{
    const auto model = trainModel(31);
    ServiceOptions options;
    options.queueCapacityRows = 4;
    PredictionService service(model, nullptr, options);
    WorkerHold hold(service);  // later jobs stay queued

    const auto queries = randomQueries(32, 5);
    ResultSink sink(queries.size());
    for (std::size_t i = 0; i < 4; ++i)
        ASSERT_TRUE(service.submit({queries[i]}, 0.0, sink.slot(i)));

    // Admission control: the fifth row exceeds the bound and must be
    // refused on this thread, before any batch flushes.
    EXPECT_FALSE(service.submit({queries[4]}, 0.0, sink.slot(4)));
    EXPECT_EQ(sink.arrived.load(), 1u);
    EXPECT_EQ(sink.results[4].error, "queue_full");

    hold.release();
    service.drain();
    ASSERT_EQ(sink.arrived.load(), queries.size());
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_TRUE(sink.results[i].ok) << i;
    EXPECT_TRUE(hold.result().ok) << hold.result().error;
}

TEST(PredictionService, DeadlinePassedWhileQueuedExpiresAtFlush)
{
    const auto model = trainModel(41);
    PredictionService service(model, nullptr, {});
    WorkerHold hold(service);

    ResultSink sink(2);
    ASSERT_TRUE(
        service.submit(randomQueries(42, 1), 5.0, sink.slot(0)));
    ASSERT_TRUE(service.submit(randomQueries(43, 1), 0.0, sink.slot(1)));
    // The deadline is measured from inside submit(), so it has passed
    // once 5 ms have elapsed since submit() returned.
    std::this_thread::sleep_for(std::chrono::milliseconds(6));
    EXPECT_EQ(sink.arrived.load(), 0u);

    hold.release();
    service.drain();
    ASSERT_EQ(sink.arrived.load(), 2u);
    EXPECT_FALSE(sink.results[0].ok);
    EXPECT_EQ(sink.results[0].error, "deadline_expired");
    // A batch-mate without a deadline is still answered.
    EXPECT_TRUE(sink.results[1].ok) << sink.results[1].error;
}

TEST(PredictionService, QueuedJobsCoalesceBehindABusyWorker)
{
    const auto model = trainModel(44);
    ServiceOptions options;
    options.batchRows = 8;
    PredictionService service(model, nullptr, options);
    auto& batches = obs::defaultRegistry().counter("serve.batches");
    WorkerHold hold(service);
    const std::uint64_t before = batches.value();

    const auto queries = randomQueries(45, 21);
    ResultSink sink(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i)
        ASSERT_TRUE(service.submit({queries[i]}, 0.0, sink.slot(i)));
    hold.release();
    service.drain();

    // 21 queued single-row jobs flush as ceil(21 / 8) = 3 batches.
    EXPECT_EQ(batches.value() - before, 3u);
    ASSERT_EQ(sink.arrived.load(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto& r = sink.results[i];
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.predictedSeconds[0],
                  model->predict(queries[i].a, queries[i].b,
                                 queries[i].fairness))
            << "row " << i;
    }
}

TEST(PredictionService, DrainAnswersEverythingThenRefuses)
{
    const auto model = trainModel(51);
    PredictionService service(model, nullptr, {});
    WorkerHold hold(service);

    const auto queries = randomQueries(52, 6);
    ResultSink sink(queries.size() + 1);
    for (std::size_t i = 0; i < queries.size(); ++i)
        ASSERT_TRUE(service.submit({queries[i]}, 0.0, sink.slot(i)));

    // drain() joins the held worker, so it runs on its own thread.
    std::thread drainer([&] { service.drain(); });
    while (!service.draining())
        std::this_thread::yield();
    // Refused while earlier jobs are still queued.
    EXPECT_FALSE(service.submit(randomQueries(53, 1), 0.0,
                                sink.slot(queries.size())));
    EXPECT_EQ(sink.results[queries.size()].error, "shutting_down");

    hold.release();
    drainer.join();
    EXPECT_EQ(sink.arrived.load(), queries.size() + 1);
    for (std::size_t i = 0; i < queries.size(); ++i)
        EXPECT_TRUE(sink.results[i].ok) << sink.results[i].error;
}

TEST(PredictionService, HotReloadUnderLoadStaysBitIdentical)
{
    // The factory rebuilds from the same seed: epochs advance but the
    // served function is unchanged, so every answer — before, during,
    // and after the swaps — must equal the cold model's.
    const auto cold = trainModel(61);
    PredictionService service(
        trainModel(61), [] { return trainModel(61); }, [] {
            ServiceOptions o;
            o.batchRows = 8;
            return o;
        }());

    const auto queries = randomQueries(62, 96);
    ResultSink sink(queries.size());
    std::atomic<bool> reloading{true};
    std::thread reloader([&] {
        for (int r = 0; r < 5; ++r) {
            service.reload();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        reloading.store(false);
    });
    std::vector<std::thread> clients;
    for (int t = 0; t < 3; ++t)
        clients.emplace_back([&, t] {
            for (std::size_t i = static_cast<std::size_t>(t);
                 i < queries.size(); i += 3)
                EXPECT_TRUE(
                    service.submit({queries[i]}, 0.0, sink.slot(i)));
        });
    for (auto& t : clients)
        t.join();
    reloader.join();
    service.drain();
    EXPECT_EQ(service.epoch(), 6u);

    ASSERT_EQ(sink.arrived.load(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto& r = sink.results[i];
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.predictedSeconds[0],
                  cold->predict(queries[i].a, queries[i].b,
                                queries[i].fairness))
            << "row " << i << " epoch " << r.epoch;
    }
}

// ---------------------------------------------------------------------------
// Protocol codec

TEST(ServeProtocol, ParsesPredictRequestsAndRejectsMalformedOnes)
{
    const auto good = serve::parseRequest(
        R"({"op":"predict","id":"q1","deadline_ms":5,)"
        R"("a":"SIFT@40","b":"FAST@20"})");
    ASSERT_TRUE(good.ok()) << good.error().toString();
    EXPECT_EQ(good.value().id, "q1");
    EXPECT_EQ(good.value().op, serve::RequestOp::Predict);
    EXPECT_EQ(good.value().deadlineMs, 5.0);
    ASSERT_EQ(good.value().queries.size(), 1u);
    EXPECT_TRUE(good.value().queries[0].byMembers);

    for (const char* bad : {
             "not json at all",
             R"({"id":"x"})",                         // missing op
             R"({"op":"launch_missiles"})",           // unknown op
             R"({"op":"predict","a":"SIFT@40"})",     // missing b
             R"({"op":"predict","a":"SIFT","b":"FAST@20"})",  // no @
             R"({"op":"predict","a":"NOPE@4","b":"FAST@20"})",
             R"({"op":"predict","a":"SIFT@0","b":"FAST@20"})",
             R"({"op":"predict","deadline_ms":-1,)"
             R"("a":"SIFT@40","b":"FAST@20"})",
             R"({"op":"predict_batch","queries":[]})",
         }) {
        EXPECT_FALSE(serve::parseRequest(bad).ok()) << bad;
    }

    // Raw-feature queries need full features and a fairness value.
    const std::string rawApp =
        R"({"cpu_time":0.5,"gpu_time":0.25,)"
        R"("mix":[10,10,10,10,10,10,10,10,20]})";
    const auto raw = serve::parseRequest(
        R"({"op":"predict","a":)" + rawApp + R"(,"b":)" + rawApp +
        R"(,"fairness":0.75})");
    ASSERT_TRUE(raw.ok()) << raw.error().toString();
    EXPECT_FALSE(raw.value().queries[0].byMembers);
    EXPECT_EQ(raw.value().queries[0].raw.fairness, 0.75);
    EXPECT_FALSE(serve::parseRequest(  // fairness missing
                     R"({"op":"predict","a":)" + rawApp + R"(,"b":)" +
                     rawApp + "}")
                     .ok());
}

TEST(ServeProtocol, RawBatchMustBeANonNegativeInt)
{
    const auto rawQuery = [](const std::string& batch) {
        const std::string app =
            R"({"cpu_time":0.5,"gpu_time":0.25,"batch":)" + batch +
            R"(,"mix":[10,10,10,10,10,10,10,10,20]})";
        return R"({"op":"predict","id":"b","a":)" + app + R"(,"b":)" +
               app + R"(,"fairness":0.75})";
    };
    const auto ok = serve::parseRequest(rawQuery("40"));
    ASSERT_TRUE(ok.ok()) << ok.error().toString();
    EXPECT_EQ(ok.value().queries[0].raw.a.batchSize, 40);
    EXPECT_TRUE(serve::parseRequest(rawQuery("0")).ok());
    EXPECT_TRUE(serve::parseRequest(rawQuery("2147483647")).ok());
    for (const char* bad :
         {"1e300", "-2.5", "-1", "2.5", "2147483648", "\"40\"", "null"}) {
        std::string id;
        const auto parsed =
            serve::parseRequest(rawQuery(bad), "client", id);
        ASSERT_FALSE(parsed.ok()) << bad;
        EXPECT_EQ(parsed.error().code(), ErrorCode::InvalidArgument)
            << bad;
        EXPECT_EQ(id, "b") << bad;
    }
}

TEST(ServeProtocol, ResponsesAreWellFormedJsonl)
{
    EXPECT_EQ(serve::ackResponse("7", serve::RequestOp::Ping),
              R"({"id":"7","ok":true,"op":"ping"})");
    EXPECT_EQ(
        serve::errorResponse("x", "queue_full", "try later"),
        R"({"id":"x","ok":false,"error":"queue_full","message":"try later"})");
    const std::vector<double> one = {0.5};
    EXPECT_EQ(serve::predictResponse("p", serve::RequestOp::Predict,
                                     one, 3, 250.0),
              R"({"id":"p","ok":true,"op":"predict",)"
              R"("predicted_seconds":0.5,"epoch":3,"queue_us":250})");
    const std::vector<double> two = {0.5, 1.5};
    EXPECT_EQ(serve::predictResponse(
                  "pb", serve::RequestOp::PredictBatch, two, 1, 0.0),
              R"({"id":"pb","ok":true,"op":"predict_batch",)"
              R"("predicted_seconds":[0.5,1.5],"epoch":1,"queue_us":0})");
}

// ---------------------------------------------------------------------------
// Server dispatch (in-process, no transport)

TEST(Server, DispatchAnswersSyncOpsAndFlagsBadRequests)
{
    const auto model = trainModel(71);
    PredictionService service(model, nullptr, {});
    predictor::DataCollector collector;
    serve::Server server(service, collector);

    std::vector<std::string> out;
    const auto collect = [&out](std::string line) {
        out.push_back(std::move(line));
    };

    server.handleLine(R"({"op":"ping","id":"1"})", collect);
    server.handleLine("garbage", collect);
    server.handleLine(R"({"op":"stats","id":"2"})", collect);
    server.handleLine(R"({"op":"quality","id":"3"})", collect);
    server.handleLine(R"({"op":"metrics","id":"4"})", collect);

    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out[0], R"({"id":"1","ok":true,"op":"ping"})");
    EXPECT_NE(out[1].find("\"ok\":false"), std::string::npos);
    EXPECT_NE(out[1].find("\"error\":\"parse\""), std::string::npos);
    EXPECT_NE(out[2].find("\"epoch\":1"), std::string::npos);
    EXPECT_NE(out[2].find("\"requests\":"), std::string::npos);
    EXPECT_NE(out[3].find("\"mape_pct\":"), std::string::npos);
    EXPECT_NE(out[3].find("\"drift\":["), std::string::npos);
    EXPECT_NE(out[4].find("# TYPE mapp_serve_requests counter"),
              std::string::npos);

    // A well-formed request that breaks the schema is a bad_request
    // that still echoes its id; only unparseable JSON is a parse error
    // with no id to echo.
    out.clear();
    server.handleLine(R"({"op":"nope","id":"7"})", collect);
    server.handleLine(R"({"op":"predict","id":"8","fairness":0.5,)"
                      R"("a":{"cpu_time":1,"gpu_time":1,"mix":[1,2]},)"
                      R"("b":{"cpu_time":1,"gpu_time":1,"mix":[1,2]}})",
                      collect);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].rfind(R"({"id":"7","ok":false,"error":"bad_request")",
                           0),
              0u)
        << out[0];
    EXPECT_EQ(out[1].rfind(R"({"id":"8","ok":false,"error":"bad_request")",
                           0),
              0u)
        << out[1];
    out.clear();
    server.handleLine("garbage", collect);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rfind(R"({"id":"","ok":false,"error":"parse")", 0),
              0u)
        << out[0];

    // Reload without a factory is an internal error response, not a
    // crash or a dropped line.
    out.clear();
    server.handleLine(R"({"op":"reload","id":"5"})", collect);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].find("\"error\":\"internal\""),
              std::string::npos);
    service.drain();
}

TEST(Server, RawPredictThroughDispatchMatchesDirectPredict)
{
    const auto model = trainModel(81);
    PredictionService service(model, nullptr, {});
    predictor::DataCollector collector;
    serve::Server server(service, collector);

    const auto query = randomQueries(82, 1)[0];
    const auto appJson = [](const predictor::AppFeatures& app) {
        std::string mix;
        for (double m : app.mixPercent) {
            if (!mix.empty())
                mix += ',';
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g", m);
            mix += buf;
        }
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      R"({"cpu_time":%.17g,"gpu_time":%.17g,"mix":[)",
                      static_cast<double>(app.cpuTime),
                      static_cast<double>(app.gpuTime));
        return std::string(buf) + mix + "]}";
    };
    char fairness[64];
    std::snprintf(fairness, sizeof(fairness), "%.17g", query.fairness);
    const std::string line = R"({"op":"predict","id":"r1","a":)" +
                             appJson(query.a) + R"(,"b":)" +
                             appJson(query.b) +
                             R"(,"fairness":)" + fairness + "}";

    std::mutex mutex;
    std::vector<std::string> out;
    server.handleLine(line, [&](std::string response) {
        std::lock_guard<std::mutex> lock(mutex);
        out.push_back(std::move(response));
    });
    service.drain();

    ASSERT_EQ(out.size(), 1u);
    const std::string& response = out[0];
    EXPECT_NE(response.find(R"("id":"r1","ok":true)"),
              std::string::npos);
    const auto at = response.find("\"predicted_seconds\":");
    ASSERT_NE(at, std::string::npos);
    const double got = std::strtod(
        response.c_str() + at +
            std::strlen("\"predicted_seconds\":"),
        nullptr);
    EXPECT_EQ(got,
              model->predict(query.a, query.b, query.fairness));
}

// ---------------------------------------------------------------------------
// Socket transport: real concurrent clients

/** Blocking JSONL client over a Unix-domain socket. */
struct SocketClient
{
    int fd = -1;

    explicit SocketClient(const std::string& path)
    {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un address{};
        address.sun_family = AF_UNIX;
        std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)) != 0) {
            ::close(fd);
            fd = -1;
        }
    }

    ~SocketClient()
    {
        if (fd >= 0)
            ::close(fd);
    }

    bool send(std::string line)
    {
        line += '\n';
        std::size_t sent = 0;
        while (sent < line.size()) {
            const auto n = ::send(fd, line.data() + sent,
                                  line.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            sent += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Read until @p lines full responses arrived (or the peer closed). */
    std::vector<std::string> readLines(std::size_t lines)
    {
        std::vector<std::string> out;
        std::string buffer;
        char chunk[4096];
        while (out.size() < lines) {
            const auto n = ::recv(fd, chunk, sizeof chunk, 0);
            if (n <= 0)
                break;
            buffer.append(chunk, static_cast<std::size_t>(n));
            std::size_t pos = 0;
            while ((pos = buffer.find('\n')) != std::string::npos) {
                out.push_back(buffer.substr(0, pos));
                buffer.erase(0, pos + 1);
            }
        }
        return out;
    }
};

/** Open file descriptors of this process. */
std::size_t
openFdCount()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
        ++n;
    return n;
}

TEST(ServeSocket, FinishedConnectionsReleaseTheirFds)
{
    const auto model = trainModel(93);
    PredictionService service(model, nullptr, ServiceOptions{});
    predictor::DataCollector collector;
    serve::Server server(service, collector);

    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("mapp_serve_fds_" + std::to_string(::getpid()) + ".sock"))
            .string();
    std::thread serverThread([&] { server.serveSocket(path); });
    for (int i = 0;
         i < 500 && !std::filesystem::exists(path); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(std::filesystem::exists(path));
    const std::size_t before = openFdCount();

    // Sequential clients: each connects, pings and hangs up.
    constexpr int kClients = 64;
    for (int c = 0; c < kClients; ++c) {
        SocketClient client(path);
        ASSERT_GE(client.fd, 0) << "client " << c;
        ASSERT_TRUE(client.send(R"({"op":"ping","id":"p"})"));
        ASSERT_EQ(client.readLines(1).size(), 1u) << "client " << c;
    }
    // One more accept reaps every connection whose reader has seen
    // its client hang up; only the last few may still be open.
    {
        SocketClient client(path);
        ASSERT_GE(client.fd, 0);
        ASSERT_TRUE(client.send(R"({"op":"ping","id":"p"})"));
        ASSERT_EQ(client.readLines(1).size(), 1u);
        EXPECT_LE(openFdCount(), before + 6)
            << "finished connections keep their fds open";
    }

    server.requestStop();
    serverThread.join();
}

TEST(ServeSocket, ConcurrentClientsThenGracefulShutdown)
{
    const auto model = trainModel(91);
    ServiceOptions options;
    options.batchRows = 4;
    PredictionService service(model, nullptr, options);
    predictor::DataCollector collector;
    serve::Server server(service, collector);

    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("mapp_serve_test_" + std::to_string(::getpid()) + ".sock"))
            .string();
    serve::StopCause cause = serve::StopCause::Eof;
    std::thread serverThread(
        [&] { cause = server.serveSocket(path); });
    for (int i = 0;
         i < 500 && !std::filesystem::exists(path); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(std::filesystem::exists(path));

    const auto queries = randomQueries(92, 12);
    const std::string rawApp =
        R"({"cpu_time":0.5,"gpu_time":0.25,)"
        R"("mix":[10,10,10,10,10,10,10,10,20]})";
    constexpr int kClients = 4;
    constexpr int kRequests = 8;
    std::atomic<int> okResponses{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            SocketClient client(path);
            ASSERT_GE(client.fd, 0);
            for (int r = 0; r < kRequests; ++r) {
                const std::string id =
                    "c" + std::to_string(c) + "-" + std::to_string(r);
                const std::string line =
                    r % 2 == 0
                        ? R"({"op":"ping","id":")" + id + R"("})"
                        : R"({"op":"predict","id":")" + id +
                              R"(","a":)" + rawApp + R"(,"b":)" +
                              rawApp + R"(,"fairness":0.5})";
                ASSERT_TRUE(client.send(line));
            }
            const auto responses = client.readLines(kRequests);
            ASSERT_EQ(responses.size(),
                      static_cast<std::size_t>(kRequests));
            // Every id answered exactly once, every answer ok.
            for (int r = 0; r < kRequests; ++r) {
                const std::string id =
                    "c" + std::to_string(c) + "-" + std::to_string(r);
                int seen = 0;
                for (const auto& response : responses)
                    if (response.find("\"id\":\"" + id + "\"") !=
                        std::string::npos) {
                        ++seen;
                        EXPECT_NE(response.find("\"ok\":true"),
                                  std::string::npos)
                            << response;
                    }
                EXPECT_EQ(seen, 1) << id;
            }
            okResponses.fetch_add(kRequests);
        });
    for (auto& t : clients)
        t.join();
    EXPECT_EQ(okResponses.load(), kClients * kRequests);

    {
        SocketClient last(path);
        ASSERT_GE(last.fd, 0);
        ASSERT_TRUE(last.send(R"({"op":"shutdown","id":"bye"})"));
        const auto farewell = last.readLines(1);
        ASSERT_EQ(farewell.size(), 1u);
        EXPECT_NE(farewell[0].find("\"ok\":true"), std::string::npos);
    }
    serverThread.join();
    EXPECT_EQ(cause, serve::StopCause::Shutdown);
    EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
