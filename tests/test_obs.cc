/**
 * @file
 * Tests for the observability layer: the power-of-two latency
 * histogram (bucketing, snapshot merge), the metrics segment (slot
 * registration, lanes, and the Prometheus rendering of its
 * families), the span tracer (ring-buffer wrap, trace-JSON shape,
 * generation restart), and the mode-word contract that disabled sites
 * record nothing. Suite names carry the "Obs" prefix so the CI TSan
 * job's regex picks them up.
 */

#include <gtest/gtest.h>

#include <atomic>
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
#include "src/serve/fleet.hh"

namespace maestro
{
namespace
{

/**
 * Restores a clean instrumentation state around each test, and binds
 * the test thread to a fresh 1-lane segment so what its sites record
 * can be read back.
 */
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

    /** Samples the bound lane holds for `series` (0 if unregistered). */
    std::uint64_t
    samples(const char *series) const
    {
        for (std::size_t i = 0; i < segment_->histogramCount(); ++i)
            if (segment_->histogramName(i) == series)
                return segment_->histogramLane(i, 0).count;
        return 0;
    }

    const std::shared_ptr<obs::SharedMetrics> segment_ =
        obs::SharedMetrics::create(1);
    const obs::LaneBinding lane_{{segment_.get(), 0}};
};

/** A series' value in one lane of `m` (0 when unregistered). */
std::uint64_t
counterIn(const obs::SharedMetrics &m, std::string_view series,
          std::size_t lane = 0)
{
    const std::size_t slot = m.findCounter(series);
    return slot == obs::SharedMetrics::kNoSlot ? 0
                                               : m.counterLane(slot, lane);
}

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
//                     Series in the segment                        //
// ---------------------------------------------------------------- //

TEST(ObsRegistry, InstrumentReferencesAreStableAndShared)
{
    // A series names one slot: every record of it lands there, and
    // a labelled series of the same family is a slot of its own.
    const auto m = obs::SharedMetrics::create(1);
    const obs::LaneBinding lane({m.get(), 0});
    obs::addCounter("t_total", 1);
    obs::addCounter("t_total", 2);
    obs::addCounter("t_total{k=\"v\"}", 5);
    EXPECT_EQ(m->counterCount(), 2u);
    const std::size_t slot = m->findCounter("t_total");
    ASSERT_NE(slot, obs::SharedMetrics::kNoSlot);
    EXPECT_EQ(m->counter("t_total"), slot);
    EXPECT_EQ(m->counterLane(slot, 0), 3u);
    EXPECT_NE(m->findCounter("t_total{k=\"v\"}"), slot);
    EXPECT_EQ(counterIn(*m, "t_total{k=\"v\"}"), 5u);
}

TEST(ObsRegistry, RenderEmitsPrometheusFamilies)
{
    // Library series render from the one family table, with their
    // HELP text; a family nobody recorded into renders nothing.
    const auto m = obs::SharedMetrics::create(1);
    {
        const obs::LaneBinding lane({m.get(), 0});
        obs::addCounter("maestro_dse_sweeps_total", 2);
        obs::recordHistogram(
            "maestro_pipeline_stage_miss_us{stage=\"tensor\"}", 3);
    }
    const std::string out = serve::fleet::metricsText(*m, nullptr);
    EXPECT_NE(out.find("# HELP maestro_dse_sweeps_total DSE sweeps "
                       "completed\n# TYPE maestro_dse_sweeps_total "
                       "counter\nmaestro_dse_sweeps_total 2\n"),
              std::string::npos);
    EXPECT_NE(out.find("# TYPE maestro_pipeline_stage_miss_us histogram"),
              std::string::npos);
    EXPECT_NE(out.find("maestro_pipeline_stage_miss_us_bucket{stage="
                       "\"tensor\",le=\"4\"} 1\n"),
              std::string::npos);
    EXPECT_NE(out.find("maestro_pipeline_stage_miss_us_bucket{stage="
                       "\"tensor\",le=\"+Inf\"} 1\n"),
              std::string::npos);
    EXPECT_NE(out.find("maestro_pipeline_stage_miss_us_sum{stage="
                       "\"tensor\"} 3\n"),
              std::string::npos);
    EXPECT_NE(out.find("maestro_pipeline_stage_miss_us_count{stage="
                       "\"tensor\"} 1\n"),
              std::string::npos);
    EXPECT_EQ(out.find("maestro_mapper_searches_total"),
              std::string::npos);
    EXPECT_EQ(out.find("maestro_requests_total"), std::string::npos);
}

TEST(ObsRegistry, RenderIsDeterministicForEqualState)
{
    // Equal counts render to equal bytes whatever order the series
    // were registered in: families in table order, series sorted.
    const auto m1 = obs::SharedMetrics::create(1);
    const auto m2 = obs::SharedMetrics::create(1);
    const char *const counters[] = {"maestro_mapper_searches_total",
                                    "maestro_dse_sweeps_total"};
    const char *const histograms[] = {
        "maestro_pipeline_stage_miss_us{stage=\"tensor\"}",
        "maestro_pipeline_stage_miss_us{stage=\"binding\"}"};
    for (std::size_t i = 0; i < 2; ++i) {
        m1->counter(counters[i]);
        m1->histogram(histograms[i]);
        m2->counter(counters[1 - i]);
        m2->histogram(histograms[1 - i]);
    }
    for (const auto &m : {m1, m2}) {
        const obs::LaneBinding lane({m.get(), 0});
        obs::addCounter("maestro_dse_sweeps_total", 1);
        obs::addCounter("maestro_mapper_searches_total", 4);
        obs::recordHistogram(
            "maestro_pipeline_stage_miss_us{stage=\"tensor\"}", 9);
    }
    const std::string out1 = serve::fleet::metricsText(*m1, nullptr);
    const std::string out2 = serve::fleet::metricsText(*m2, nullptr);
    EXPECT_EQ(out1, out2);
    EXPECT_LT(out1.find("maestro_dse_sweeps_total 1"),
              out1.find("maestro_mapper_searches_total 4"));
    EXPECT_LT(out1.find("maestro_pipeline_stage_miss_us_count{stage="
                        "\"binding\"} 0"),
              out1.find("maestro_pipeline_stage_miss_us_count{stage="
                        "\"tensor\"} 1"));
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
    const obs::Site site{"obs_test.disabled", "test",
                         "obs_test_disabled_us"};
    {
        obs::ScopedSpan span(site);
        span.arg("ignored", 1);
    }
    // Not even a registration: the segment stays empty.
    EXPECT_EQ(segment_->histogramCount(), 0u);
    EXPECT_EQ(obs::Tracer::instance().eventCount(), 0u);
}

TEST_F(ObsTestBase, TimingModeFeedsTheSiteHistogram)
{
    const obs::Site site{"obs_test.timing", "test",
                         "obs_test_timing_us"};
    obs::enableMode(obs::kTiming);
    {
        obs::ScopedSpan span(site);
    }
    EXPECT_EQ(samples("obs_test_timing_us"), 1u);
    // Timing alone must not create trace events.
    EXPECT_EQ(obs::Tracer::instance().eventCount(), 0u);
}

TEST_F(ObsTestBase, ModeIsSampledAtSpanConstruction)
{
    const obs::Site site{"obs_test.sampled", "test",
                         "obs_test_sampled_us"};
    {
        obs::ScopedSpan span(site);
        obs::enableMode(obs::kTiming); // after construction: ignored
    }
    EXPECT_EQ(samples("obs_test_sampled_us"), 0u);
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
    static const obs::Site site{"obs_test.mt", "test", "obs_test_mt_us"};
    obs::Tracer &tracer = obs::Tracer::instance();

    tracer.start(/*ring_capacity=*/256);
    constexpr std::size_t kIterations = 400;
    ThreadPool::run(4, kIterations, [&](std::size_t i) {
        obs::ScopedSpan span(site);
        span.arg("i", i);
        obs::addCounter("mt_total", 1);
    });
    tracer.stop();

    // Every helper recorded into the caller's lane.
    EXPECT_EQ(counterIn(*segment_, "mt_total"), kIterations);
    EXPECT_EQ(samples("obs_test_mt_us"), kIterations);
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

TEST(ObsSharedMetrics, SlotRegistrationBoundsAreTableDriven)
{
    // Every kind's table takes names up to kMaxNameBytes-1 bytes and
    // refuses empty names, names at the cap and names holding a NUL.
    using Register = std::size_t (obs::SharedMetrics::*)(std::string_view);
    const std::size_t cap = obs::SharedMetrics::kMaxNameBytes;
    const struct
    {
        std::string name;
        bool fits;
    } names[] = {
        {"", false},
        {"a", true},
        {std::string(cap - 1, 'y'), true},
        {std::string(cap, 'x'), false},
        {std::string(cap + 50, 'z'), false},
        {"family{label=\"" + std::string(cap, 'v') + "\"}", false},
        {std::string("nul\0byte", 8), false},
        {std::string("trailing\0", 9), false},
    };
    for (const Register reg :
         {&obs::SharedMetrics::counter, &obs::SharedMetrics::gauge,
          &obs::SharedMetrics::histogram}) {
        const auto m = obs::SharedMetrics::create(1);
        for (const auto &row : names) {
            const std::size_t slot = ((*m).*reg)(row.name);
            EXPECT_EQ(slot != obs::SharedMetrics::kNoSlot, row.fits)
                << row.name.size() << " bytes";
        }
    }
}

TEST(ObsSharedMetrics, RecordsSkipSeriesWithNoSlot)
{
    // A full table or an over-long name gives kNoSlot, and the
    // lane's recorders then skip the record: no slot changes, and
    // nothing is written past the tables.
    const auto m = obs::SharedMetrics::create(1);
    const obs::LaneBinding lane({m.get(), 0});
    for (std::size_t i = 0; i < obs::SharedMetrics::kMaxCounters; ++i) {
        std::string name = "c";
        name += std::to_string(i);
        ASSERT_NE(m->counter(name), obs::SharedMetrics::kNoSlot);
        if (i < obs::SharedMetrics::kMaxHistograms) {
            ASSERT_NE(m->histogram(name), obs::SharedMetrics::kNoSlot);
        }
    }
    const std::string too_long(obs::SharedMetrics::kMaxNameBytes, 'x');
    for (const std::string &series : {std::string("one_too_many"),
                                      too_long}) {
        EXPECT_EQ(m->counter(series), obs::SharedMetrics::kNoSlot);
        EXPECT_EQ(m->histogram(series), obs::SharedMetrics::kNoSlot);
        obs::addCounter(series, 7);
        obs::recordHistogram(series, 7);
    }
    EXPECT_EQ(m->counterCount(), obs::SharedMetrics::kMaxCounters);
    EXPECT_EQ(m->histogramCount(), obs::SharedMetrics::kMaxHistograms);
    for (std::size_t i = 0; i < obs::SharedMetrics::kMaxCounters; ++i)
        EXPECT_EQ(m->counterTotal(i), 0u) << i;
    for (std::size_t i = 0; i < obs::SharedMetrics::kMaxHistograms;
         ++i)
        EXPECT_EQ(m->histogramTotal(i).count, 0u) << i;
}

// ---------------------------------------------------------------- //
//                  Lanes: where a thread records                   //
// ---------------------------------------------------------------- //

TEST(ObsLanes, BoundThreadRecordsIntoItsLane)
{
    const auto m = obs::SharedMetrics::create(2);
    std::thread other([&] {
        const obs::LaneBinding lane({m.get(), 1});
        obs::addCounter("lane_total", 5);
        obs::recordHistogram("lane_us", 9);
    });
    other.join();
    {
        const obs::LaneBinding lane({m.get(), 0});
        obs::addCounter("lane_total", 2);
        EXPECT_EQ(obs::boundLane().segment, m.get());
        {
            // Bindings nest; the inner one is undone at scope exit.
            const obs::LaneBinding inner({m.get(), 1});
            EXPECT_EQ(obs::boundLane().index, 1u);
        }
        EXPECT_EQ(obs::boundLane().index, 0u);
    }
    EXPECT_EQ(obs::boundLane().segment, nullptr);
    EXPECT_EQ(counterIn(*m, "lane_total", 0), 2u);
    EXPECT_EQ(counterIn(*m, "lane_total", 1), 5u);
    EXPECT_EQ(m->histogramLane(m->histogram("lane_us"), 1).total_us, 9u);

    // An unbound thread records into the process segment instead.
    obs::SharedMetrics &process = obs::processMetrics();
    const std::uint64_t before = counterIn(process, "lane_total");
    obs::addCounter("lane_total", 3);
    EXPECT_EQ(counterIn(process, "lane_total"), before + 3);
    EXPECT_EQ(m->counterTotal(m->findCounter("lane_total")), 7u);
}

TEST(ObsLanes, PoolHelpersAndTasksRecordIntoTheCallersLane)
{
    const auto m = obs::SharedMetrics::create(2);
    ThreadPool pool(2);
    std::atomic<std::size_t> done{0};
    {
        const obs::LaneBinding lane({m.get(), 1});
        // Fork-join helpers inherit the caller's lane...
        ThreadPool::run(3, 30, [](std::size_t) {
            obs::addCounter("run_total", 1);
        });
        // ...and so do queued tasks, whichever worker runs them.
        for (int i = 0; i < 8; ++i)
            pool.submit([&done] {
                obs::addCounter("task_total", 1);
                done.fetch_add(1);
            });
    }
    while (done.load() < 8)
        std::this_thread::yield();
    EXPECT_EQ(counterIn(*m, "run_total", 1), 30u);
    EXPECT_EQ(counterIn(*m, "task_total", 1), 8u);
    EXPECT_EQ(counterIn(*m, "run_total", 0), 0u);
    EXPECT_EQ(counterIn(*m, "task_total", 0), 0u);

    // A task submitted from an unbound thread runs unbound, even on
    // a worker that ran a bound task before.
    std::atomic<bool> unbound{false};
    pool.submit([&] {
        unbound = obs::boundLane().segment == nullptr;
        done.fetch_add(1);
    });
    while (done.load() < 9)
        std::this_thread::yield();
    EXPECT_TRUE(unbound.load());
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
