/**
 * @file
 * Tests for the observability layer: the power-of-two latency
 * histogram (bucketing, snapshot merge), the metrics registry and its
 * Prometheus rendering, the span tracer (ring-buffer wrap, trace-JSON
 * shape, generation restart), and the mode-word contract that
 * disabled sites record nothing. Suite names carry the "Obs" prefix
 * so the CI TSan job's regex picks them up.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/common/histogram.hh"
#include "src/common/thread_pool.hh"
#include "src/common/version.hh"
#include "src/obs/event_log.hh"
#include "src/obs/metrics.hh"
#include "src/obs/obs.hh"
#include "src/obs/shared_metrics.hh"

namespace maestro
{
namespace
{

/** Restores a clean instrumentation state around each test. */
class ObsTestBase : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::Tracer::instance().stop();
        obs::disableMode(obs::kTiming | obs::kSpans);
    }

    void
    TearDown() override
    {
        obs::Tracer::instance().stop();
        obs::disableMode(obs::kTiming | obs::kSpans);
    }
};

// ---------------------------------------------------------------- //
//                        LatencyHistogram                          //
// ---------------------------------------------------------------- //

TEST(ObsHistogram, BucketPlacementFollowsPowersOfTwo)
{
    LatencyHistogram h;
    h.record(0); // sub-µs lands in bucket 0
    h.record(1);
    h.record(2); // [2, 4) -> bucket 1
    h.record(3);
    h.record(4); // [4, 8) -> bucket 2
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 2u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.totalMicros(), 10u);
    EXPECT_EQ(h.maxMicros(), 4u);
}

TEST(ObsHistogram, HugeSamplesLandInOverflowBucket)
{
    LatencyHistogram h;
    h.record(~std::uint64_t{0});
    EXPECT_EQ(h.bucket(LatencyHistogram::kBuckets - 1), 1u);
    EXPECT_TRUE(LatencyHistogram::isOverflowBucket(
        LatencyHistogram::kBuckets - 1));
    EXPECT_FALSE(LatencyHistogram::isOverflowBucket(0));
}

TEST(ObsHistogram, UpperBoundsDouble)
{
    EXPECT_EQ(LatencyHistogram::upperBoundMicros(0), 2u);
    EXPECT_EQ(LatencyHistogram::upperBoundMicros(1), 4u);
    EXPECT_EQ(LatencyHistogram::upperBoundMicros(10), 2048u);
}

TEST(ObsHistogram, SnapshotMergeAddsCountsAndKeepsMax)
{
    LatencyHistogram a;
    LatencyHistogram b;
    a.record(1);
    a.record(100);
    b.record(5);
    b.record(7000);

    LatencyHistogram::Snapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.count, 4u);
    EXPECT_EQ(merged.total_us, 1u + 100u + 5u + 7000u);
    EXPECT_EQ(merged.max_us, 7000u);

    std::uint64_t bucket_sum = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i)
        bucket_sum += merged.buckets[i];
    EXPECT_EQ(bucket_sum, 4u);
}

TEST(ObsHistogram, ResetZeroesEverything)
{
    LatencyHistogram h;
    h.record(123);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.totalMicros(), 0u);
    EXPECT_EQ(h.maxMicros(), 0u);
}

// ---------------------------------------------------------------- //
//                            Registry                              //
// ---------------------------------------------------------------- //

TEST(ObsRegistry, InstrumentReferencesAreStableAndShared)
{
    obs::Registry reg;
    obs::Counter &a = reg.counter("t_total", "help");
    obs::Counter &b = reg.counter("t_total", "other help ignored");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);

    obs::Counter &labeled =
        reg.counter("t_total", "help", {{"k", "v"}});
    EXPECT_NE(&a, &labeled);
}

TEST(ObsRegistry, RenderEmitsPrometheusFamilies)
{
    obs::Registry reg;
    reg.counter("t_requests_total", "Requests served", {{"ep", "a"}})
        .add(2);
    reg.histogram("t_lat_us", "Latency").record(3);

    std::string out;
    reg.render(out);
    EXPECT_NE(out.find("# HELP t_requests_total Requests served"),
              std::string::npos);
    EXPECT_NE(out.find("# TYPE t_requests_total counter"),
              std::string::npos);
    EXPECT_NE(out.find("t_requests_total{ep=\"a\"} 2"),
              std::string::npos);
    EXPECT_NE(out.find("# TYPE t_lat_us histogram"),
              std::string::npos);
    EXPECT_NE(out.find("t_lat_us_bucket{le=\"4\"} 1"),
              std::string::npos);
    EXPECT_NE(out.find("t_lat_us_bucket{le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(out.find("t_lat_us_sum 3"), std::string::npos);
    EXPECT_NE(out.find("t_lat_us_count 1"), std::string::npos);
}

TEST(ObsRegistry, RenderIsDeterministicForEqualState)
{
    obs::Registry reg1;
    obs::Registry reg2;
    for (obs::Registry *reg : {&reg2, &reg1}) {
        reg->counter("b_total", "b").add(1);
        reg->counter("a_total", "a", {{"z", "1"}}).add(2);
        reg->counter("a_total", "a", {{"b", "0"}}).add(3);
    }
    std::string out1;
    std::string out2;
    reg1.render(out1);
    reg2.render(out2);
    EXPECT_EQ(out1, out2);
    // Families sorted by name, label sets by rendered label string.
    EXPECT_LT(out1.find("a_total{b=\"0\"}"),
              out1.find("a_total{z=\"1\"}"));
    EXPECT_LT(out1.find("a_total"), out1.find("b_total"));
}

TEST(ObsRegistry, LabelStringEscapesSpecials)
{
    EXPECT_EQ(obs::labelString({}), "");
    EXPECT_EQ(obs::labelString({{"a", "x"}, {"b", "y"}}),
              "{a=\"x\",b=\"y\"}");
    EXPECT_EQ(obs::labelString({{"k", "q\"b\\c\nd"}}),
              "{k=\"q\\\"b\\\\c\\nd\"}");
}

// ---------------------------------------------------------------- //
//                         Spans and modes                          //
// ---------------------------------------------------------------- //

TEST_F(ObsTestBase, DisabledSpanRecordsNothing)
{
    LatencyHistogram hist;
    const obs::Site site{"obs_test.disabled", "test", &hist};
    {
        obs::ScopedSpan span(site);
        span.arg("ignored", 1);
    }
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(obs::Tracer::instance().eventCount(), 0u);
}

TEST_F(ObsTestBase, TimingModeFeedsTheSiteHistogram)
{
    LatencyHistogram hist;
    const obs::Site site{"obs_test.timing", "test", &hist};
    obs::enableMode(obs::kTiming);
    {
        obs::ScopedSpan span(site);
    }
    EXPECT_EQ(hist.count(), 1u);
    // Timing alone must not create trace events.
    EXPECT_EQ(obs::Tracer::instance().eventCount(), 0u);
}

TEST_F(ObsTestBase, ModeIsSampledAtSpanConstruction)
{
    LatencyHistogram hist;
    const obs::Site site{"obs_test.sampled", "test", &hist};
    {
        obs::ScopedSpan span(site);
        obs::enableMode(obs::kTiming); // after construction: ignored
    }
    EXPECT_EQ(hist.count(), 0u);
}

// ---------------------------------------------------------------- //
//                             Tracer                               //
// ---------------------------------------------------------------- //

TEST_F(ObsTestBase, TracerCapturesSpansWithArgs)
{
    const obs::Site site{"obs_test.span", "test", nullptr};
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.start();
    {
        obs::ScopedSpan span(site);
        span.arg("items", 42);
        span.arg("valid", 7);
    }
    tracer.stop();
    EXPECT_EQ(tracer.eventCount(), 1u);

    const std::string json = tracer.json();
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find("\"name\":\"obs_test.span\""),
              std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"items\":42"), std::string::npos);
    EXPECT_NE(json.find("\"valid\":7"), std::string::npos);
    EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);

    // Well-formedness proxy: balanced braces and brackets.
    std::int64_t braces = 0;
    std::int64_t brackets = 0;
    for (char c : json) {
        braces += c == '{' ? 1 : c == '}' ? -1 : 0;
        brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST_F(ObsTestBase, RingWrapKeepsNewestAndCountsDropped)
{
    const obs::Site site{"obs_test.wrap", "test", nullptr};
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.start(/*ring_capacity=*/4);
    for (int i = 0; i < 10; ++i)
        obs::ScopedSpan span(site);
    tracer.stop();
    EXPECT_EQ(tracer.eventCount(), 4u);
    EXPECT_EQ(tracer.droppedCount(), 6u);
    EXPECT_NE(tracer.json().find("\"dropped_events\":6"),
              std::string::npos);
}

TEST_F(ObsTestBase, ThreadsShareOneRing)
{
    const obs::Site site{"obs_test.shared", "test", nullptr};
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.start(/*ring_capacity=*/4);
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 4; ++i)
                obs::ScopedSpan span(site);
        });
    }
    for (std::thread &t : threads)
        t.join();
    tracer.stop();
    // One ring for the process: the 12 records keep only the newest 4.
    EXPECT_EQ(tracer.eventCount(), 4u);
    EXPECT_EQ(tracer.droppedCount(), 8u);
    const std::string json = tracer.json();
    EXPECT_NE(json.find("\"dropped_events\":8"), std::string::npos);
    EXPECT_NE(json.find("\"threads\":3"), std::string::npos);
}

TEST_F(ObsTestBase, ShortLivedThreadsCostNoRingEach)
{
    const obs::Site site{"obs_test.short", "test", nullptr};
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.start(/*ring_capacity=*/8);
    for (int t = 0; t < 64; ++t) {
        std::thread([&] { obs::ScopedSpan span(site); }).join();
    }
    tracer.stop();
    // Every thread gets a tid, but the events share one 8-slot ring.
    EXPECT_EQ(tracer.eventCount(), 8u);
    EXPECT_EQ(tracer.droppedCount(), 56u);
    const std::string json = tracer.json();
    EXPECT_NE(json.find("\"dropped_events\":56"), std::string::npos);
    EXPECT_NE(json.find("\"threads\":64"), std::string::npos);
}

TEST_F(ObsTestBase, StartDiscardsThePreviousGeneration)
{
    const obs::Site site{"obs_test.gen", "test", nullptr};
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.start();
    {
        obs::ScopedSpan span(site);
    }
    EXPECT_EQ(tracer.eventCount(), 1u);
    tracer.start();
    EXPECT_EQ(tracer.eventCount(), 0u);
    EXPECT_EQ(tracer.droppedCount(), 0u);
    tracer.stop();
}

TEST_F(ObsTestBase, StopFreezesCaptureButKeepsEventsExportable)
{
    const obs::Site site{"obs_test.frozen", "test", nullptr};
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.start();
    {
        obs::ScopedSpan span(site);
    }
    tracer.stop();
    {
        obs::ScopedSpan span(site); // after stop: not captured
    }
    EXPECT_EQ(tracer.eventCount(), 1u);
    EXPECT_NE(tracer.json().find("obs_test.frozen"),
              std::string::npos);
}

TEST_F(ObsTestBase, ObsConcurrentSpansAndCountersAreRaceFree)
{
    static LatencyHistogram hist;
    static const obs::Site site{"obs_test.mt", "test", &hist};
    obs::Registry reg;
    obs::Counter &counter = reg.counter("mt_total", "mt");
    obs::Tracer &tracer = obs::Tracer::instance();

    hist.reset();
    tracer.start(/*ring_capacity=*/256);
    constexpr std::size_t kIterations = 400;
    ThreadPool::run(4, kIterations, [&](std::size_t i) {
        obs::ScopedSpan span(site);
        span.arg("i", i);
        counter.add(1);
    });
    tracer.stop();

    EXPECT_EQ(counter.value(), kIterations);
    EXPECT_EQ(hist.count(), kIterations);
    // run() itself also records a pool.parallel_for span while
    // tracing, so captured + dropped is at least the explicit span
    // count.
    EXPECT_GE(static_cast<std::uint64_t>(tracer.eventCount()) +
                  tracer.droppedCount(),
              kIterations);
    // Export renders cleanly after concurrent capture.
    const std::string json = tracer.json();
    EXPECT_NE(json.find("obs_test.mt"), std::string::npos);
}

TEST(ObsVersion, VersionStringLooksSemantic)
{
    const std::string v = kVersion;
    EXPECT_FALSE(v.empty());
    EXPECT_NE(v.find('.'), std::string::npos);
}

// ---------------------------------------------------------------- //
//                      SharedMetrics segment                       //
// ---------------------------------------------------------------- //

TEST(ObsSharedMetrics, RegistrationIsIdempotentAcrossKinds)
{
    const auto m = obs::SharedMetrics::create(2);
    const std::size_t c1 = m->counter("requests_total");
    const std::size_t c2 = m->counter("requests_total");
    EXPECT_EQ(c1, c2);
    EXPECT_NE(c1, obs::SharedMetrics::kNoSlot);

    // Kind tables are independent: the same name may exist as a
    // counter AND a gauge without colliding.
    const std::size_t g = m->gauge("requests_total");
    EXPECT_NE(g, obs::SharedMetrics::kNoSlot);
    EXPECT_EQ(m->counterCount(), 1u);
    EXPECT_EQ(m->gaugeCount(), 1u);

    EXPECT_EQ(m->findCounter("requests_total"), c1);
    EXPECT_EQ(m->findCounter("never_registered"),
              obs::SharedMetrics::kNoSlot);
}

TEST(ObsSharedMetrics, LaneSumsAreFleetTotals)
{
    const auto m = obs::SharedMetrics::create(3);
    ASSERT_EQ(m->lanes(), 3u);
    const std::size_t c = m->counter("c");
    m->addCounter(c, 0, 5);
    m->addCounter(c, 1, 7);
    m->addCounter(c, 2, 11);
    EXPECT_EQ(m->counterLane(c, 1), 7u);
    EXPECT_EQ(m->counterTotal(c), 23u);

    const std::size_t g = m->gauge("g");
    m->addGauge(g, 0, 4);
    m->addGauge(g, 1, -1);
    m->setGauge(g, 2, 10);
    EXPECT_EQ(m->gaugeLane(g, 1), -1);
    EXPECT_EQ(m->gaugeTotal(g), 13);
}

TEST(ObsSharedMetrics, HistogramLaneMergeIsExact)
{
    // The same samples, once through the local LatencyHistogram and
    // once split across two segment lanes, must merge to the exact
    // same snapshot — counters, per-bucket counts, total, and max.
    const std::uint64_t samples[] = {0,  1,   3,     7,      8,
                                     63, 900, 12345, 7777777};
    LatencyHistogram local;
    const auto m = obs::SharedMetrics::create(2);
    const std::size_t h = m->histogram("latency_us");
    std::size_t i = 0;
    for (const std::uint64_t s : samples) {
        local.record(s);
        m->recordHistogram(h, i++ % 2, s);
    }
    const LatencyHistogram::Snapshot want = local.snapshot();
    const LatencyHistogram::Snapshot got = m->histogramTotal(h);
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.total_us, want.total_us);
    EXPECT_EQ(got.max_us, want.max_us);
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b)
        EXPECT_EQ(got.buckets[b], want.buckets[b]) << "bucket " << b;

    // Per-lane reads see only their lane's share.
    const auto lane0 = m->histogramLane(h, 0);
    const auto lane1 = m->histogramLane(h, 1);
    EXPECT_EQ(lane0.count + lane1.count, want.count);
}

TEST(ObsSharedMetrics, FullTablesAndLongNamesReturnNoSlot)
{
    const auto m = obs::SharedMetrics::create(1);
    for (std::size_t i = 0; i < obs::SharedMetrics::kMaxGauges;
         ++i) {
        std::string name = "g";
        name += std::to_string(i);
        ASSERT_NE(m->gauge(name), obs::SharedMetrics::kNoSlot);
    }
    EXPECT_EQ(m->gauge("one_too_many"),
              obs::SharedMetrics::kNoSlot);

    const std::string long_name(obs::SharedMetrics::kMaxNameBytes,
                                'x');
    EXPECT_EQ(m->counter(long_name), obs::SharedMetrics::kNoSlot);
    // One byte under the cap (NUL included) still fits.
    const std::string fits(obs::SharedMetrics::kMaxNameBytes - 1,
                           'y');
    EXPECT_NE(m->counter(fits), obs::SharedMetrics::kNoSlot);
}

TEST(ObsSharedMetrics, LaneCountClampsToBounds)
{
    EXPECT_EQ(obs::SharedMetrics::create(0)->lanes(), 1u);
    EXPECT_EQ(obs::SharedMetrics::create(100000)->lanes(),
              obs::SharedMetrics::kMaxLanes);
}

TEST(ObsSharedMetrics, CountersWithPrefixCountsLiveSeries)
{
    const auto m = obs::SharedMetrics::create(1);
    m->counter("client_requests_total{client=\"a\"}");
    m->counter("client_requests_total{client=\"b\"}");
    m->counter("client_inflight{client=\"a\"}");
    EXPECT_EQ(m->countersWithPrefix("client_requests_total{"), 2u);
    EXPECT_EQ(m->countersWithPrefix("client_"), 3u);
    EXPECT_EQ(m->countersWithPrefix("nope"), 0u);
}

TEST(ObsSharedMetrics, ConcurrentRegistrationAgreesOnSlots)
{
    // Many threads register the same name set concurrently (the
    // post-fork per-client path): every thread must resolve each
    // name to the same slot and the table must hold exactly one slot
    // per distinct name.
    const auto m = obs::SharedMetrics::create(4);
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kNames = 32;
    std::vector<std::vector<std::size_t>> slots(
        kThreads, std::vector<std::size_t>(kNames));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t n = 0; n < kNames; ++n) {
                const std::size_t slot =
                    m->counter("name_" + std::to_string(n));
                slots[t][n] = slot;
                m->addCounter(slot, t % 4);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(m->counterCount(), kNames);
    for (std::size_t n = 0; n < kNames; ++n) {
        for (std::size_t t = 1; t < kThreads; ++t)
            EXPECT_EQ(slots[t][n], slots[0][n]);
        EXPECT_EQ(m->counterTotal(slots[0][n]), kThreads);
    }
}

// ---------------------------------------------------------------- //
//                       EventLog (JSONL)                           //
// ---------------------------------------------------------------- //

namespace
{

/** A throwaway log path, removed (with its .1 rotation) on exit. */
class TempLogPath
{
  public:
    explicit TempLogPath(const char *tag)
        : path_(std::string(::testing::TempDir()) +
                "maestro_event_log_" + tag + "_" +
                std::to_string(::getpid()) + ".jsonl")
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".1").c_str());
    }
    ~TempLogPath()
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".1").c_str());
    }
    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

} // namespace

TEST(ObsEventLog, LinesAreOneWholeJsonObjectEach)
{
    TempLogPath path("schema");
    obs::EventLogOptions opt;
    opt.path = path.str();
    opt.worker = 3;
    obs::EventLog log(opt);

    obs::RequestEvent req;
    req.method = "POST";
    req.endpoint = "analyze";
    req.status = 200;
    req.latency_us = 1234;
    req.client = "alice";
    req.trace = "maestro-1";
    req.cache = "miss";
    log.logRequest(req);

    obs::JobEvent job;
    job.event = "completed";
    job.id = "job-1";
    job.client = "alice";
    job.endpoint = "dse";
    job.trace = "maestro-1";
    job.status = 200;
    job.has_run = true;
    job.run_us = 99;
    log.logJob(job);

    log.logWorker("started", 42);

    const auto lines = readLines(path.str());
    ASSERT_EQ(lines.size(), 3u);
    for (const std::string &line : lines) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"ts_us\":"), std::string::npos);
        EXPECT_NE(line.find("\"worker\":"), std::string::npos);
    }
    EXPECT_NE(lines[0].find("\"type\":\"request\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"endpoint\":\"analyze\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"latency_us\":1234"),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"cache\":\"miss\""),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"type\":\"job\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"run_us\":99"), std::string::npos);
    EXPECT_NE(lines[2].find("\"type\":\"worker\""),
              std::string::npos);

    const obs::EventLogStats stats = log.stats();
    EXPECT_EQ(stats.lines, 3u);
    EXPECT_EQ(stats.rotations, 0u);
    std::ifstream in(path.str(), std::ios::ate | std::ios::binary);
    EXPECT_EQ(static_cast<std::uint64_t>(in.tellg()), stats.bytes);
}

TEST(ObsEventLog, RingTailsNewestEntriesOldestFirst)
{
    obs::EventLogOptions opt; // no path: ring only
    opt.ring = 4;
    obs::EventLog log(opt);
    for (int i = 0; i < 6; ++i)
        log.logWorker("tick", i);

    const std::string tail = log.tailJson(10);
    EXPECT_NE(tail.find("\"count\":4"), std::string::npos);
    // 0 and 1 were overwritten; 2..5 remain, oldest first.
    EXPECT_EQ(tail.find("\"pid\":0"), std::string::npos);
    EXPECT_EQ(tail.find("\"pid\":1}"), std::string::npos);
    const std::size_t p2 = tail.find("\"pid\":2");
    const std::size_t p5 = tail.find("\"pid\":5");
    EXPECT_NE(p2, std::string::npos);
    EXPECT_NE(p5, std::string::npos);
    EXPECT_LT(p2, p5);
    EXPECT_EQ(log.stats().dropped, 2u);

    const std::string two = log.tailJson(2);
    EXPECT_NE(two.find("\"count\":2"), std::string::npos);
    EXPECT_EQ(two.find("\"pid\":3"), std::string::npos);
}

TEST(ObsEventLog, RotationKeepsWholeLinesOnBothSides)
{
    TempLogPath path("rotate");
    obs::EventLogOptions opt;
    opt.path = path.str();
    opt.max_bytes = 512; // force several rotations
    obs::EventLog log(opt);
    for (int i = 0; i < 40; ++i)
        log.logWorker("spin", 1000 + i);

    const obs::EventLogStats stats = log.stats();
    EXPECT_GE(stats.rotations, 1u);
    EXPECT_EQ(stats.lines, 40u);

    std::size_t total = 0;
    for (const std::string &file :
         {path.str(), path.str() + ".1"}) {
        for (const std::string &line : readLines(file)) {
            ASSERT_FALSE(line.empty()) << file;
            EXPECT_EQ(line.front(), '{') << file;
            EXPECT_EQ(line.back(), '}') << file;
            ++total;
        }
    }
    // Rotation renames path -> path.1, so at most one prior
    // generation survives; everything still on disk is whole lines.
    EXPECT_GT(total, 0u);
    EXPECT_LE(total, 40u);
}

TEST(ObsEventLog, EmptyPathKeepsRingOnly)
{
    obs::EventLogOptions opt;
    obs::EventLog log(opt);
    log.logWorker("started", 7);
    EXPECT_EQ(log.stats().lines, 1u);
    EXPECT_EQ(log.stats().bytes, 0u);
    EXPECT_NE(log.tailJson(1).find("\"pid\":7"), std::string::npos);
}

} // namespace
} // namespace maestro
