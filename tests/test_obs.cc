/** @file Unit tests for the observability layer: metrics registry,
 * scoped timers, the registry-backed phase tree and the Chrome-trace
 * event tracer. */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/parallel.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace {

using namespace mapp;

// ---------------------------------------------------------------------------
// A tiny validating JSON parser: enough to parse back what the obs layer
// emits (objects, arrays, strings with escapes, numbers, bools, null) and
// fail loudly on malformed output.

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;

    bool has(const std::string& key) const
    {
        return fields.find(key) != fields.end();
    }
    const JsonValue& at(const std::string& key) const
    {
        return fields.at(key);
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    JsonValue parse()
    {
        const JsonValue v = parseValue();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string& why)
    {
        throw std::runtime_error("JSON error at offset " +
                                 std::to_string(pos_) + ": " + why);
    }

    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    JsonValue parseValue()
    {
        const char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return parseString();
        if (c == 't' || c == 'f')
            return parseBool();
        if (c == 'n')
            return parseNull();
        return parseNumber();
    }

    JsonValue parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            const JsonValue key = parseString();
            expect(':');
            v.fields[key.text] = parseValue();
            const char c = peek();
            ++pos_;
            if (c == '}')
                return v;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    JsonValue parseArray()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.items.push_back(parseValue());
            const char c = peek();
            ++pos_;
            if (c == ']')
                return v;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    JsonValue parseString()
    {
        expect('"');
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return v;
            if (c != '\\') {
                v.text += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("dangling escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"':
                v.text += '"';
                break;
              case '\\':
                v.text += '\\';
                break;
              case '/':
                v.text += '/';
                break;
              case 'n':
                v.text += '\n';
                break;
              case 'r':
                v.text += '\r';
                break;
              case 't':
                v.text += '\t';
                break;
              case 'b':
                v.text += '\b';
                break;
              case 'f':
                v.text += '\f';
                break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("short \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                v.text += static_cast<char>(code < 128 ? code : '?');
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    JsonValue parseBool()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (text_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
        } else {
            fail("bad literal");
        }
        return v;
    }

    JsonValue parseNull()
    {
        if (text_.compare(pos_, 4, "null") != 0)
            fail("bad literal");
        pos_ += 4;
        return JsonValue{};
    }

    JsonValue parseNumber()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected a number");
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = std::stod(text_.substr(start, pos_ - start));
        return v;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics registry

TEST(Registry, CounterCreateIncrementSnapshotReset)
{
    obs::Registry reg;
    obs::Counter& c = reg.counter("widgets");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);

    // Same name resolves to the same instrument.
    reg.counter("widgets").add(8);
    EXPECT_EQ(c.value(), 50u);

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].first, "widgets");
    EXPECT_EQ(snap.counters[0].second, 50u);

    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    // Reset keeps the instrument registered.
    EXPECT_EQ(reg.snapshot().counters.size(), 1u);
}

TEST(Registry, GaugeLastWriteWins)
{
    obs::Registry reg;
    reg.gauge("depth").set(3.0);
    reg.gauge("depth").set(5.5);
    EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 5.5);
}

TEST(Registry, HistogramBucketEdges)
{
    obs::Registry reg;
    obs::Histogram& h = reg.histogram("lat", {1.0, 2.0, 4.0});

    // Bucket i counts v <= bounds[i]: the edge lands in its own bucket.
    h.observe(0.5);
    h.observe(1.0);   // exactly the first bound
    h.observe(1.01);  // just past it
    h.observe(4.0);   // exactly the last bound
    h.observe(100.0);  // overflow

    const auto counts = h.bucketCounts();
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 1u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.01 + 4.0 + 100.0);
}

TEST(Registry, HistogramRejectsMalformedBounds)
{
    obs::Registry reg;
    EXPECT_THROW(reg.histogram("bad", {2.0, 1.0}), FatalError);
    EXPECT_THROW(reg.histogram("dup", {1.0, 1.0}), FatalError);
    // Registry maps empty bounds to the defaults; the Histogram type
    // itself must reject them.
    EXPECT_THROW(obs::Histogram({}, "empty"), FatalError);
    EXPECT_THROW(
        reg.histogram("nan",
                      {1.0, std::numeric_limits<double>::quiet_NaN()}),
        FatalError);
    EXPECT_THROW(
        reg.histogram("inf",
                      {1.0, std::numeric_limits<double>::infinity()}),
        FatalError);
}

TEST(HistogramSnapshot, QuantileEmptyIsNaN)
{
    obs::Registry reg;
    reg.histogram("q.empty", {1.0, 2.0});
    const auto snap = reg.snapshot();
    const auto* h = snap.findHistogram("q.empty");
    ASSERT_NE(h, nullptr);
    EXPECT_TRUE(std::isnan(h->quantile(0.5)));
}

TEST(HistogramSnapshot, QuantileInterpolatesInsideBucket)
{
    obs::Registry reg;
    obs::Histogram& h = reg.histogram("q.interp", {10.0, 20.0});
    // 10 observations in (0, 10], none beyond: ranks spread linearly
    // across the first bucket [0, 10].
    for (int i = 0; i < 10; ++i)
        h.observe(5.0);
    const auto snap = reg.snapshot();
    const auto* s = snap.findHistogram("q.interp");
    ASSERT_NE(s, nullptr);
    EXPECT_DOUBLE_EQ(s->quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(s->quantile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(s->quantile(1.0), 10.0);
    // q is clamped, not rejected.
    EXPECT_DOUBLE_EQ(s->quantile(-1.0), s->quantile(0.0));
    EXPECT_DOUBLE_EQ(s->quantile(2.0), s->quantile(1.0));
}

TEST(HistogramSnapshot, QuantileSplitsAcrossBuckets)
{
    obs::Registry reg;
    obs::Histogram& h = reg.histogram("q.split", {1.0, 2.0, 4.0});
    for (int i = 0; i < 3; ++i)
        h.observe(0.5);  // bucket [0,1]
    h.observe(3.0);  // bucket (2,4]
    const auto snap = reg.snapshot();
    const auto* s = snap.findHistogram("q.split");
    ASSERT_NE(s, nullptr);
    // Rank 2 of 4 lands at the end of the first bucket's mass.
    EXPECT_LE(s->quantile(0.5), 1.0);
    EXPECT_GT(s->quantile(0.5), 0.0);
    // The top quartile interpolates inside (2, 4].
    EXPECT_GT(s->quantile(0.95), 2.0);
    EXPECT_LE(s->quantile(0.95), 4.0);
}

TEST(HistogramSnapshot, QuantileOverflowClampsToLastBound)
{
    obs::Registry reg;
    obs::Histogram& h = reg.histogram("q.overflow", {1.0, 2.0});
    for (int i = 0; i < 5; ++i)
        h.observe(100.0);  // all mass beyond the last bound
    const auto snap = reg.snapshot();
    const auto* s = snap.findHistogram("q.overflow");
    ASSERT_NE(s, nullptr);
    EXPECT_DOUBLE_EQ(s->quantile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(s->quantile(0.99), 2.0);
}

TEST(HistogramSnapshot, QuantileNegativeBoundsUseFirstBoundEdge)
{
    // Signed-error histograms extend below zero: the first bucket's
    // lower edge is its own bound, not zero.
    obs::Registry reg;
    obs::Histogram& h = reg.histogram("q.signed", {-10.0, 0.0, 10.0});
    for (int i = 0; i < 4; ++i)
        h.observe(-5.0);  // bucket (-10, 0]
    const auto snap = reg.snapshot();
    const auto* s = snap.findHistogram("q.signed");
    ASSERT_NE(s, nullptr);
    const double p50 = s->quantile(0.5);
    EXPECT_GE(p50, -10.0);
    EXPECT_LE(p50, 0.0);
}

TEST(Registry, ConcurrentCountersAreExact)
{
    obs::Registry reg;
    obs::Counter& c = reg.counter("hits");
    constexpr int kThreads = 4;
    constexpr int kIncrements = 10'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < kIncrements; ++i)
                c.add();
        });
    }
    for (auto& t : threads)
        t.join();
    EXPECT_EQ(c.value(),
              static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Registry, JsonSnapshotParses)
{
    obs::Registry reg;
    reg.counter("a.count").add(7);
    reg.gauge("b.gauge").set(-2.25);
    reg.histogram("c.hist", {1.0, 10.0}).observe(3.0);

    const JsonValue doc = JsonParser(reg.toJson()).parse();
    EXPECT_DOUBLE_EQ(doc.at("counters").at("a.count").number, 7.0);
    EXPECT_DOUBLE_EQ(doc.at("gauges").at("b.gauge").number, -2.25);
    const JsonValue& hist = doc.at("histograms").at("c.hist");
    EXPECT_DOUBLE_EQ(hist.at("count").number, 1.0);
    EXPECT_DOUBLE_EQ(hist.at("sum").number, 3.0);
    ASSERT_EQ(hist.at("buckets").items.size(), 3u);
    EXPECT_DOUBLE_EQ(hist.at("buckets").items[1].number, 1.0);
}

TEST(Registry, NonFiniteGaugeExportsAsNull)
{
    // JSON has no NaN/Inf literal; rewriting to 0 would fabricate a
    // data point in dashboards, so the exporter must emit null.
    obs::Registry reg;
    reg.gauge("bad.nan").set(std::numeric_limits<double>::quiet_NaN());
    reg.gauge("bad.inf").set(std::numeric_limits<double>::infinity());
    reg.gauge("good").set(1.5);

    const std::string json = reg.toJson();
    EXPECT_EQ(json.find('\0'), std::string::npos);
    const JsonValue doc = JsonParser(json).parse();
    EXPECT_EQ(doc.at("gauges").at("bad.nan").kind,
              JsonValue::Kind::Null);
    EXPECT_EQ(doc.at("gauges").at("bad.inf").kind,
              JsonValue::Kind::Null);
    EXPECT_DOUBLE_EQ(doc.at("gauges").at("good").number, 1.5);
}

// ---------------------------------------------------------------------------
// Timers and the phase profiler

TEST(ScopedTimer, AccumulatesIntoHistogram)
{
    obs::Registry reg;
    obs::Histogram& h = reg.histogram("op_seconds");
    for (int i = 0; i < 3; ++i) {
        obs::ScopedTimer timer(h);
        // A little busy-work so elapsed time is strictly positive.
        volatile double sink = 0.0;
        for (int k = 0; k < 1000; ++k)
            sink = sink + k;
    }
    EXPECT_EQ(h.count(), 3u);
    EXPECT_GT(h.sum(), 0.0);
}

TEST(ScopedTimer, CancelSuppressesRecording)
{
    obs::Registry reg;
    obs::Histogram& h = reg.histogram("op_seconds");
    {
        obs::ScopedTimer timer(h);
        timer.cancel();
    }
    EXPECT_EQ(h.count(), 0u);
}

TEST(Phases, TreeRebuiltFromPhaseHistograms)
{
    obs::Registry reg;
    for (int i = 0; i < 2; ++i) {
        reg.histogram("phase.loocv").observe(1.0);
        reg.histogram("phase.loocv/tree-training").observe(0.25);
    }
    reg.histogram("phase.cache-load").observe(0.5);
    reg.histogram("loocv.seconds").observe(3.0);  // not a phase

    const auto root = obs::phaseTree(reg.snapshot());
    EXPECT_TRUE(root.name.empty());
    ASSERT_EQ(root.children.size(), 2u);
    EXPECT_EQ(root.children[0].name, "cache-load");
    EXPECT_EQ(root.children[0].count, 1u);
    const auto& loocv = root.children[1];
    EXPECT_EQ(loocv.name, "loocv");
    EXPECT_EQ(loocv.count, 2u);
    EXPECT_DOUBLE_EQ(loocv.seconds, 2.0);
    ASSERT_EQ(loocv.children.size(), 1u);
    EXPECT_EQ(loocv.children[0].name, "tree-training");
    EXPECT_EQ(loocv.children[0].count, 2u);
    EXPECT_DOUBLE_EQ(loocv.children[0].seconds, 0.5);

    // Registry::reset() keeps the histograms at count 0: the tree
    // leaves them out instead of listing phases that never ran.
    reg.reset();
    EXPECT_TRUE(obs::phaseTree(reg.snapshot()).children.empty());
    reg.histogram("phase.loocv/tree-training").observe(0.1);
    const auto partial = obs::phaseTree(reg.snapshot());
    ASSERT_EQ(partial.children.size(), 1u);  // the open parent stays
    EXPECT_EQ(partial.children[0].count, 0u);
    ASSERT_EQ(partial.children[0].children.size(), 1u);
    EXPECT_EQ(partial.children[0].children[0].count, 1u);
}

TEST(Phases, ScopedPhaseNestsIntoTheDefaultRegistry)
{
    for (int i = 0; i < 3; ++i) {
        const obs::ScopedPhase outer("test-outer");
        EXPECT_EQ(obs::currentPhasePath(), "test-outer");
        const obs::ScopedPhase inner("test-inner");
        EXPECT_EQ(obs::currentPhasePath(), "test-outer/test-inner");
    }
    EXPECT_EQ(obs::currentPhasePath(), "");
    const auto snap = obs::defaultRegistry().snapshot();
    const auto* outer = snap.findHistogram("phase.test-outer");
    const auto* inner =
        snap.findHistogram("phase.test-outer/test-inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->count, 3u);
    EXPECT_EQ(inner->count, 3u);
    EXPECT_GE(outer->sum, inner->sum);
}

TEST(Phases, UnwindingPopsThePath)
{
    try {
        const obs::ScopedPhase outer("test-unwind");
        const obs::ScopedPhase inner("test-unwind-inner");
        throw std::runtime_error("boom");
    } catch (const std::runtime_error&) {
    }
    EXPECT_EQ(obs::currentPhasePath(), "");
    const obs::PhasePathScope scope("a/b");
    EXPECT_EQ(obs::currentPhasePath(), "a/b");
    {
        const obs::PhasePathScope nested("c");
        EXPECT_EQ(obs::currentPhasePath(), "c");
    }
    EXPECT_EQ(obs::currentPhasePath(), "a/b");
}

// ---------------------------------------------------------------------------
// Tracer

TEST(Tracer, DisabledRecordsNothing)
{
    obs::Tracer tracer;
    ASSERT_FALSE(tracer.enabled());
    for (int i = 0; i < 1000; ++i) {
        tracer.completeEvent("phase", "cat", i, 1.0, 1, 0);
        tracer.instantEvent("mark", "cat", i, 1, 0);
    }
    // Zero-overhead smoke check: a disabled tracer stores no events and
    // its export is an empty (but valid) document.
    EXPECT_EQ(tracer.size(), 0u);
    const JsonValue doc =
        JsonParser(tracer.chromeTraceJson()).parse();
    EXPECT_TRUE(doc.at("traceEvents").items.empty());
}

TEST(Tracer, ChromeTraceJsonRoundTrips)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);

    const int pid = tracer.beginTrack("gpusim bag: \"A\"+B\\slash");
    tracer.nameThread(pid, 0, "client 0");
    tracer.completeEvent(
        "kernel \"phase\"\nwith newline", "gpusim.phase", 10.0, 32.5,
        pid, 0,
        {obs::TraceArg::str("app", "SIFT"),
         obs::TraceArg::num("phase_index", 3.0)});
    tracer.instantEvent("re-partition", "gpusim.partition", 42.5, pid, 0,
                        {obs::TraceArg::num("residents", 2.0)});
    tracer.counterEvent("bandwidth", 50.0, pid,
                        {obs::TraceArg::num("gbps", 123.5)});

    const std::string json = tracer.chromeTraceJson();
    const JsonValue doc = JsonParser(json).parse();
    const auto& events = doc.at("traceEvents").items;
    ASSERT_EQ(events.size(), 5u);

    // Every event has the Chrome-trace required fields.
    for (const auto& e : events) {
        EXPECT_TRUE(e.has("name"));
        EXPECT_TRUE(e.has("ph"));
        EXPECT_TRUE(e.has("pid"));
        EXPECT_TRUE(e.has("tid"));
    }

    const auto& span = events[2];
    EXPECT_EQ(span.at("ph").text, "X");
    EXPECT_EQ(span.at("name").text, "kernel \"phase\"\nwith newline");
    EXPECT_DOUBLE_EQ(span.at("ts").number, 10.0);
    EXPECT_DOUBLE_EQ(span.at("dur").number, 32.5);
    EXPECT_EQ(span.at("args").at("app").text, "SIFT");
    EXPECT_DOUBLE_EQ(span.at("args").at("phase_index").number, 3.0);

    const auto& instant = events[3];
    EXPECT_EQ(instant.at("ph").text, "i");
    EXPECT_DOUBLE_EQ(instant.at("args").at("residents").number, 2.0);

    const auto& meta = events[0];
    EXPECT_EQ(meta.at("ph").text, "M");
    EXPECT_EQ(meta.at("args").at("name").text,
              "gpusim bag: \"A\"+B\\slash");
}

TEST(Tracer, WriteChromeTraceFileParsesBack)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    const int pid = tracer.beginTrack("test track");
    tracer.completeEvent("work", "cat", 0.0, 5.0, pid, 0);

    const std::string path = ::testing::TempDir() + "mapp_obs_trace.json";
    ASSERT_TRUE(tracer.writeChromeTrace(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const JsonValue doc = JsonParser(buffer.str()).parse();
    EXPECT_EQ(doc.at("traceEvents").items.size(), 2u);
    std::remove(path.c_str());
}

TEST(Tracer, ClearDropsEventsButKeepsEnabled)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    tracer.instantEvent("mark", "cat", 0.0, 1, 0);
    EXPECT_EQ(tracer.size(), 1u);
    tracer.clear();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_TRUE(tracer.enabled());
}

// ---------------------------------------------------------------------------
// Logging satellites

TEST(Log, ParseLogLevel)
{
    EXPECT_EQ(parseLogLevel("quiet"), LogLevel::Quiet);
    EXPECT_EQ(parseLogLevel("NORMAL"), LogLevel::Normal);
    EXPECT_EQ(parseLogLevel("Verbose"), LogLevel::Verbose);
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_FALSE(parseLogLevel("loud").has_value());
}

TEST(Log, DebugTierOrdering)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Verbose);
    EXPECT_NO_THROW(debug("suppressed at verbose"));
    setLogLevel(LogLevel::Debug);
    EXPECT_NO_THROW(debug("printed at debug"));
    EXPECT_NO_THROW(verbose("also printed at debug"));
    setLogLevel(before);
}

// ---------------------------------------------------------------------------
// Static-destruction ordering: the global thread pool's destructor
// joins workers whose tasks (and queued leftovers) touch the obs
// singletons, so globalPool() pins registry/tracer/prediction-log
// construction before the pool's. The assertions that matter run at
// process exit under ASan/TSan — a regression shows up as a
// use-after-free when this binary tears down, not as an EXPECT here.

TEST(ShutdownOrder, PoolTasksMayConstructObsSingletons)
{
    obs::predictionLog().setEnabled(true);
    std::atomic<int> touched{0};
    parallel::parallelFor(64, [&touched](std::size_t i) {
        obs::defaultRegistry()
            .counter("test.shutdown_order.tasks")
            .add(1);
        obs::tracer().instantEvent(
            "shutdown-order-" + std::to_string(i), "test", 0.0, 0, 0);
        obs::predictionLog();
        touched.fetch_add(1, std::memory_order_relaxed);
    });
    obs::predictionLog().setEnabled(false);
    EXPECT_EQ(touched.load(), 64);
    const auto snap = obs::defaultRegistry().snapshot();
    const auto* count =
        snap.findCounter("test.shutdown_order.tasks");
    ASSERT_NE(count, nullptr);
    EXPECT_GE(*count, 64u);
}

TEST(ShutdownOrder, LateParallelForRunsSerialOncePoolRetired)
{
    // Normal operation: the retired flag is still false, so this runs
    // through the pool. The serial fallback itself is exercised at
    // exit by any atexit-registered parallelFor; here we just assert
    // the live path completes every index exactly once.
    std::vector<std::atomic<int>> hits(17);
    parallel::parallelFor(hits.size(), [&hits](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(Log, ConcurrentWritersDoNotCrash)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Quiet);  // exercise the path, keep output clean
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < 100; ++i) {
                inform("i" + std::to_string(i));
                if (i == 0)
                    warn("concurrent writer " + std::to_string(t));
            }
        });
    }
    for (auto& t : threads)
        t.join();
    setLogLevel(before);
}

}  // namespace
