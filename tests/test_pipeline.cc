/**
 * @file
 * Tests for the staged analysis pipeline and its supporting pieces:
 * the LRU memo cache, the worker pool, stage fingerprints, cross-layer
 * dedup, the thread-parallel batch API's determinism, and the
 * energyFromSums consistency contract (including grouped
 * convolutions, the regression for the per-group DRAM fill scaling).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "src/common/error.hh"
#include "src/common/lru_cache.hh"
#include "src/common/thread_pool.hh"
#include "src/core/analyzer.hh"
#include "src/core/pipeline.hh"
#include "src/dataflows/catalog.hh"
#include "src/dse/explorer.hh"
#include "src/model/zoo.hh"

namespace maestro
{
namespace
{

DimMap<Count>
dims(Count n, Count k, Count c, Count y, Count x, Count r, Count s)
{
    DimMap<Count> d;
    d[Dim::N] = n;
    d[Dim::K] = k;
    d[Dim::C] = c;
    d[Dim::Y] = y;
    d[Dim::X] = x;
    d[Dim::R] = r;
    d[Dim::S] = s;
    return d;
}

// ---------------------------------------------------------------- //
//                            LruCache                              //
// ---------------------------------------------------------------- //

TEST(LruCache, PutGetAndCounters)
{
    LruCache<int, int> cache(4);
    EXPECT_FALSE(cache.get(1).has_value());
    cache.put(1, 10);
    const auto hit = cache.get(1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 10);

    const CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.5);
}

TEST(LruCache, EvictsLeastRecentlyUsed)
{
    LruCache<int, int> cache(2);
    cache.put(1, 10);
    cache.put(2, 20);
    cache.get(1); // refresh 1; 2 becomes LRU
    cache.put(3, 30);

    EXPECT_TRUE(cache.get(1).has_value());
    EXPECT_FALSE(cache.get(2).has_value());
    EXPECT_TRUE(cache.get(3).has_value());
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(LruCache, GetOrComputeComputesOncePerKey)
{
    LruCache<std::string, int> cache(8);
    int computed = 0;
    auto compute = [&] { return ++computed; };
    EXPECT_EQ(cache.getOrCompute("k", compute), 1);
    EXPECT_EQ(cache.getOrCompute("k", compute), 1);
    EXPECT_EQ(computed, 1);
}

TEST(LruCache, GetOrComputeDoesNotCacheExceptions)
{
    LruCache<std::string, int> cache(8);
    EXPECT_THROW(cache.getOrCompute(
                     "k", []() -> int { throw Error("boom"); }),
                 Error);
    EXPECT_EQ(cache.getOrCompute("k", [] { return 7; }), 7);
}

TEST(LruCache, ConcurrentGetOrComputeIsConsistent)
{
    LruCache<int, int> cache(64);
    ThreadPool::run(4, 256, [&](std::size_t i) {
        const int key = static_cast<int>(i % 16);
        const int value =
            cache.getOrCompute(key, [&] { return key * 3; });
        EXPECT_EQ(value, key * 3);
    });
}

// ---------------------------------------------------------------- //
//                            ThreadPool                            //
// ---------------------------------------------------------------- //

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    for (std::size_t threads : {0u, 1u, 4u}) {
        SCOPED_TRACE(threads);
        std::vector<std::atomic<int>> hits(97);
        ThreadPool::run(threads, hits.size(), [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, ParallelForPropagatesFirstException)
{
    for (std::size_t threads : {0u, 1u, 4u}) {
        SCOPED_TRACE(threads);
        // Every index from 13 on throws; the first one to throw
        // cancels the rest, so far fewer than all of them run.
        std::atomic<int> thrown{0};
        EXPECT_THROW(ThreadPool::run(threads, 4096,
                                     [&](std::size_t i) {
                                         if (i >= 13) {
                                             ++thrown;
                                             throw Error("boom");
                                         }
                                     }),
                     Error);
        EXPECT_GE(thrown.load(), 1);
        EXPECT_LE(thrown.load(), static_cast<int>(std::max<std::size_t>(
                                     threads, 1)));
        // A later call runs every index again.
        std::atomic<int> count{0};
        ThreadPool::run(threads, 8, [&](std::size_t) { ++count; });
        EXPECT_EQ(count.load(), 8);
    }
}

TEST(ThreadPool, RunHelperHandlesSerialAndParallel)
{
    for (std::size_t threads : {0u, 1u, 4u}) {
        std::vector<std::atomic<int>> hits(31);
        ThreadPool::run(threads, hits.size(), [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPool, ChunkCountMatchesRunChunkedCalls)
{
    // runChunked documents its chunking: one call when serial, else
    // min(count, 4 * num_threads) calls, covering each index once.
    for (std::size_t threads : {0u, 1u, 2u, 3u, 4u}) {
        for (std::size_t count : {0u, 1u, 2u, 5u, 16u, 97u}) {
            SCOPED_TRACE(threads);
            SCOPED_TRACE(count);
            std::atomic<std::size_t> calls{0};
            std::vector<std::atomic<int>> hits(count);
            ThreadPool::runChunked(
                threads, count, [&](std::size_t begin, std::size_t end) {
                    ++calls;
                    for (std::size_t i = begin; i < end; ++i)
                        hits[i].fetch_add(1, std::memory_order_relaxed);
                });
            const std::size_t chunks =
                threads <= 1 ? std::min<std::size_t>(count, 1)
                             : std::min<std::size_t>(count, 4 * threads);
            EXPECT_EQ(calls.load(), chunks);
            for (const auto &h : hits)
                EXPECT_EQ(h.load(), 1);
        }
    }
}

// ---------------------------------------------------------------- //
//                          Fingerprints                            //
// ---------------------------------------------------------------- //

TEST(Fingerprints, ShapeIgnoresLayerName)
{
    const Layer a("first", OpType::Conv2D, dims(1, 64, 3, 224, 224, 3, 3));
    const Layer b("second", OpType::Conv2D, dims(1, 64, 3, 224, 224, 3, 3));
    EXPECT_EQ(shapeFingerprint(a), shapeFingerprint(b));
}

TEST(Fingerprints, ShapeSeesEveryAnalysisInput)
{
    const Layer base("l", OpType::Conv2D, dims(1, 64, 3, 56, 56, 3, 3));
    Layer strided = base;
    strided.stride(2);
    Layer padded = base;
    padded.padding(1);
    Layer grouped("l", OpType::Conv2D, dims(1, 64, 3, 56, 56, 3, 3));
    grouped.groups(2);
    Layer sparse = base;
    sparse.inputDensity(0.5);

    EXPECT_NE(shapeFingerprint(base), shapeFingerprint(strided));
    EXPECT_NE(shapeFingerprint(base), shapeFingerprint(padded));
    EXPECT_NE(shapeFingerprint(base), shapeFingerprint(grouped));
    EXPECT_NE(shapeFingerprint(base), shapeFingerprint(sparse));
}

TEST(Fingerprints, DataflowIgnoresNameButSeesStructure)
{
    const Dataflow kcp = dataflows::byName("KC-P");
    Dataflow renamed("something-else");
    for (const Directive &d : kcp.directives())
        renamed.add(d);
    EXPECT_EQ(dataflowFingerprint(kcp), dataflowFingerprint(renamed));
    EXPECT_NE(dataflowFingerprint(kcp),
              dataflowFingerprint(dataflows::byName("YR-P")));
}

TEST(Fingerprints, HardwareSeesBufferAndEnergyKnobs)
{
    const AcceleratorConfig base = AcceleratorConfig::paperStudy();
    AcceleratorConfig bigger_l2 = base;
    bigger_l2.l2_bytes *= 2;
    const EnergyModel energy;
    EXPECT_NE(hardwareFingerprint(base, energy),
              hardwareFingerprint(bigger_l2, energy));
    EXPECT_EQ(hardwareFingerprint(base, energy),
              hardwareFingerprint(base, EnergyModel()));
}

// ---------------------------------------------------------------- //
//                       Pipeline memoization                       //
// ---------------------------------------------------------------- //

TEST(Pipeline, RepeatedCallHitsLayerCache)
{
    const Network net = zoo::vgg16();
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    const Dataflow df = dataflows::byName("KC-P");

    analyzer.analyzeLayer(net.layer("CONV2"), df);
    const PipelineStats cold = analyzer.pipelineStats();
    EXPECT_EQ(cold.layer.hits, 0u);
    EXPECT_EQ(cold.layer.misses, 1u);
    EXPECT_EQ(cold.evaluations, 1u);

    analyzer.analyzeLayer(net.layer("CONV2"), df);
    const PipelineStats warm = analyzer.pipelineStats();
    EXPECT_EQ(warm.layer.hits, 1u);
    EXPECT_EQ(warm.layer.misses, 1u);
    EXPECT_EQ(warm.evaluations, 2u);
}

TEST(Pipeline, ResNetDedupsRepeatedShapes)
{
    const Network net = zoo::resnet50();
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    analyzer.analyzeNetwork(net, dataflows::byName("KC-P"));

    const PipelineStats stats = analyzer.pipelineStats();
    EXPECT_EQ(stats.evaluations, net.layers().size());
    // ResNet's stacked bottleneck blocks repeat shapes: far fewer
    // unique evaluations than layers.
    EXPECT_LT(stats.layer.misses, net.layers().size());
    EXPECT_EQ(stats.layer.hits + stats.layer.misses,
              net.layers().size());
}

TEST(Pipeline, SweepingBuffersReusesBindAndFlatStages)
{
    const Network net = zoo::vgg16();
    const Layer &layer = net.layer("CONV2");
    const Dataflow df = dataflows::byName("KC-P");
    auto pipeline = std::make_shared<AnalysisPipeline>();

    // Same PEs and flags, different L2: the layer stage misses but
    // the bind/flat artifacts are reused.
    for (Count l2 : {1u << 20, 1u << 21, 1u << 22}) {
        AcceleratorConfig cfg = AcceleratorConfig::paperStudy();
        cfg.l2_bytes = l2;
        const Analyzer analyzer(cfg, EnergyModel(), pipeline);
        analyzer.analyzeLayer(layer, df);
    }
    const PipelineStats stats = pipeline->stats();
    EXPECT_EQ(stats.layer.misses, 3u);
    EXPECT_EQ(stats.binding.misses, 1u);
    EXPECT_EQ(stats.binding.hits, 2u);
    EXPECT_EQ(stats.flat.misses, 1u);
    EXPECT_EQ(stats.flat.hits, 2u);
}

TEST(Pipeline, ClearCachesKeepsAnswersIdentical)
{
    const Network net = zoo::vgg16();
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    const Dataflow df = dataflows::byName("YR-P");

    const LayerAnalysis before =
        analyzer.analyzeLayer(net.layer("CONV11"), df);
    analyzer.pipeline()->clearCaches();
    const LayerAnalysis after =
        analyzer.analyzeLayer(net.layer("CONV11"), df);
    EXPECT_EQ(before.runtime, after.runtime);
    EXPECT_EQ(before.energy(), after.energy());
    EXPECT_EQ(before.cost.noc_elements, after.cost.noc_elements);
}

// ---------------------------------------------------------------- //
//                    evaluateBatch determinism                     //
// ---------------------------------------------------------------- //

std::vector<Analyzer::BatchJob>
vggBatchJobs()
{
    const Network net = zoo::vgg16();
    std::vector<Analyzer::BatchJob> jobs;
    for (const char *df : {"KC-P", "YR-P", "YX-P"}) {
        for (const Layer &layer : net.layers())
            jobs.push_back({layer, dataflows::byName(df)});
    }
    return jobs;
}

TEST(EvaluateBatch, FourThreadsBitIdenticalToOneThread)
{
    const std::vector<Analyzer::BatchJob> jobs = vggBatchJobs();

    // Independent analyzers (fresh pipelines) so neither run sees the
    // other's cached artifacts.
    const Analyzer serial(AcceleratorConfig::paperStudy());
    const Analyzer parallel(AcceleratorConfig::paperStudy());
    const auto a = serial.evaluateBatch(jobs, 1);
    const auto b = parallel.evaluateBatch(jobs, 4);

    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_TRUE(a[i].ok) << a[i].error;
        ASSERT_TRUE(b[i].ok) << b[i].error;
        const LayerAnalysis &x = a[i].analysis;
        const LayerAnalysis &y = b[i].analysis;
        EXPECT_EQ(x.layer_name, y.layer_name);
        EXPECT_EQ(x.runtime, y.runtime);
        EXPECT_EQ(x.total_macs, y.total_macs);
        EXPECT_EQ(x.active_pes, y.active_pes);
        EXPECT_EQ(x.noc_bw_requirement, y.noc_bw_requirement);
        EXPECT_EQ(x.energy(), y.energy());
        EXPECT_EQ(x.onchipEnergy(), y.onchipEnergy());
        EXPECT_EQ(x.cost.l1_bytes_required, y.cost.l1_bytes_required);
        EXPECT_EQ(x.cost.l2_bytes_required, y.cost.l2_bytes_required);
        EXPECT_EQ(x.cost.noc_elements, y.cost.noc_elements);
        for (TensorKind t : kAllTensors) {
            EXPECT_EQ(x.cost.dram_reads[t], y.cost.dram_reads[t]);
            EXPECT_EQ(x.cost.l2_reads[t], y.cost.l2_reads[t]);
            EXPECT_EQ(x.cost.l1_reads[t], y.cost.l1_reads[t]);
        }
    }
}

TEST(EvaluateBatch, ReportsPerJobErrorsWithoutAborting)
{
    const Network net = zoo::vgg16();
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    const Dataflow df = dataflows::byName("KC-P");

    // An empty dataflow cannot bind: that job fails, its neighbors
    // succeed.
    std::vector<Analyzer::BatchJob> jobs;
    jobs.push_back({net.layer("CONV1"), df});
    jobs.push_back({net.layer("CONV1"), Dataflow("empty")});
    jobs.push_back({net.layer("CONV2"), df});

    const auto evals = analyzer.evaluateBatch(jobs, 2);
    ASSERT_EQ(evals.size(), 3u);
    EXPECT_TRUE(evals[0].ok);
    EXPECT_FALSE(evals[1].ok);
    EXPECT_FALSE(evals[1].error.empty());
    EXPECT_TRUE(evals[2].ok);

    // analyzeNetwork-style strict consumption throws instead.
    EXPECT_THROW(analyzer.analyzeNetwork(net, Dataflow("empty")),
                 Error);
}

TEST(EvaluateBatch, ConcurrentSharedAnalyzerHammer)
{
    // TSan target: many threads hammering one analyzer (and thus one
    // pipeline) on a handful of distinct keys.
    const Network net = zoo::vgg16();
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    const std::vector<Dataflow> dfs = {dataflows::byName("KC-P"),
                                       dataflows::byName("YR-P")};
    const std::vector<const Layer *> layers = {
        &net.layer("CONV1"), &net.layer("CONV2"), &net.layer("CONV11")};

    std::vector<double> runtimes(64);
    ThreadPool::run(4, runtimes.size(), [&](std::size_t i) {
        const LayerAnalysis la = analyzer.analyzeLayer(
            *layers[i % layers.size()], dfs[i % dfs.size()]);
        runtimes[i] = la.runtime;
    });
    for (std::size_t i = 0; i < runtimes.size(); ++i) {
        const LayerAnalysis la = analyzer.analyzeLayer(
            *layers[i % layers.size()], dfs[i % dfs.size()]);
        EXPECT_EQ(runtimes[i], la.runtime);
    }
}

// ---------------------------------------------------------------- //
//                     Explorer thread parity                       //
// ---------------------------------------------------------------- //

TEST(ThreadParity, ExplorerFourThreadsMatchesSerial)
{
    const Network net = zoo::vgg16();
    const Layer &layer = net.layer("CONV2");
    const Dataflow df = dataflows::byName("KC-P");
    const dse::DesignSpace space = dse::DesignSpace::small();

    dse::DseOptions serial_opts;
    const dse::Explorer a(AcceleratorConfig::paperStudy());
    const dse::DseResult serial =
        a.explore(layer, df, space, serial_opts);

    dse::DseOptions parallel_opts;
    parallel_opts.num_threads = 4;
    const dse::Explorer b(AcceleratorConfig::paperStudy());
    const dse::DseResult parallel =
        b.explore(layer, df, space, parallel_opts);

    EXPECT_EQ(serial.explored_points, parallel.explored_points);
    EXPECT_EQ(serial.evaluated_points, parallel.evaluated_points);
    EXPECT_EQ(serial.valid_points, parallel.valid_points);
    ASSERT_EQ(serial.samples.size(), parallel.samples.size());
    auto expectSamePoint = [](const dse::DesignPoint &x,
                              const dse::DesignPoint &y) {
        EXPECT_EQ(x.num_pes, y.num_pes);
        EXPECT_EQ(x.l1_bytes, y.l1_bytes);
        EXPECT_EQ(x.l2_bytes, y.l2_bytes);
        EXPECT_EQ(x.noc_bandwidth, y.noc_bandwidth);
        EXPECT_EQ(x.runtime, y.runtime);
        EXPECT_EQ(x.energy, y.energy);
        EXPECT_EQ(x.edp, y.edp);
    };
    expectSamePoint(serial.best_throughput, parallel.best_throughput);
    expectSamePoint(serial.best_energy, parallel.best_energy);
    expectSamePoint(serial.best_edp, parallel.best_edp);
    for (std::size_t i = 0; i < serial.samples.size(); ++i)
        expectSamePoint(serial.samples[i], parallel.samples[i]);
}

// ---------------------------------------------------------------- //
//                   energyFromSums consistency                     //
// ---------------------------------------------------------------- //

/**
 * Re-deriving energy from the activity counts at the analyzed
 * configuration's own capacities must reproduce the analyzer's total
 * (same terms, same per-group residency decision on the stored
 * elements). Grouped convolutions exercise the cost.groups scaling:
 * before the fix the per-group DRAM fill was compared against the
 * all-groups dram_reads, understating grouped DRAM energy. The
 * transposed convolutions (dcgan, unet) store their zero-stuffed
 * inputs at a density below one.
 */
struct ConsistencyCase
{
    const char *model;
    const char *layer;
    const char *dataflow;
};

class EnergyConsistency
    : public ::testing::TestWithParam<ConsistencyCase>
{
};

TEST_P(EnergyConsistency, ReproducesAnalyzerTotal)
{
    const ConsistencyCase &cc = GetParam();
    const Network net = zoo::byName(cc.model);
    const AcceleratorConfig cfg = AcceleratorConfig::paperStudy();
    const Analyzer analyzer(cfg);
    const LayerAnalysis la = analyzer.analyzeLayer(
        net.layer(cc.layer), dataflows::byName(cc.dataflow));

    const double derived = dse::energyFromSums(
        la.cost.accessSums(), cfg.l1_bytes, cfg.l2_bytes,
        cfg.precision_bytes, cfg.noc.avgLatency(), EnergyModel());
    // Same terms in a different summation order: allow a few ulps.
    EXPECT_NEAR(derived, la.energy(), 1e-9 * la.energy());
}

INSTANTIATE_TEST_SUITE_P(
    Pipeline, EnergyConsistency,
    ::testing::Values(ConsistencyCase{"vgg16", "CONV2", "KC-P"},
                      ConsistencyCase{"vgg16", "CONV11", "YX-P"},
                      ConsistencyCase{"alexnet", "CONV2", "YR-P"},
                      ConsistencyCase{"resnext50", "S2B1_3x3", "KC-P"},
                      ConsistencyCase{"mobilenetv2", "B2_dw", "YR-P"},
                      ConsistencyCase{"mobilenetv2", "B2_expand",
                                      "KC-P"},
                      ConsistencyCase{"dcgan", "TRCONV5", "KC-P"},
                      ConsistencyCase{"unet", "UPCONV1", "KC-P"}),
    [](const ::testing::TestParamInfo<ConsistencyCase> &info) {
        std::string name = std::string(info.param.model) + '_' +
                           info.param.layer + '_' +
                           info.param.dataflow;
        for (char &ch : name) {
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return name;
    });

TEST(EnergyConsistency, RepricedSumsMatchAnalysisAtOtherL2Sizes)
{
    // The DSE prices one analysis's sums at every swept L2 size. At
    // each size the result must be the energy an analysis at that
    // size reports: the DRAM fill, and its L2 writes, follow the
    // residency rule there, not at the analyzed size.
    const AcceleratorConfig cfg = AcceleratorConfig::paperStudy();
    ASSERT_EQ(cfg.l2_bytes, Count(1) << 20);
    const Analyzer analyzer(cfg);
    for (const ConsistencyCase &cc :
         {ConsistencyCase{"vgg16", "CONV11", "KC-P"},
          ConsistencyCase{"dcgan", "TRCONV5", "KC-P"},
          ConsistencyCase{"unet", "UPCONV2", "KC-P"}}) {
        const Layer layer = zoo::byName(cc.model).layer(cc.layer);
        const Dataflow df = dataflows::byName(cc.dataflow);
        const CostResult::AccessSums sums =
            analyzer.analyzeLayer(layer, df).cost.accessSums();
        for (const Count l2 : {Count(16) << 10, Count(144) << 10}) {
            AcceleratorConfig at = cfg;
            at.l2_bytes = l2;
            const LayerAnalysis la =
                Analyzer(at).analyzeLayer(layer, df);
            const double derived = dse::energyFromSums(
                sums, at.l1_bytes, l2, at.precision_bytes,
                at.noc.avgLatency(), EnergyModel());
            EXPECT_NEAR(derived, la.energy(), 1e-9 * la.energy())
                << cc.model << ' ' << cc.layer << ' ' << cc.dataflow
                << " l2=" << l2;
        }
    }
}

TEST(EnergyConsistency, GroupScalingMattersForGroupedConvs)
{
    // resnext50's grouped 3x3 (32 groups): dropping the groups factor
    // (the pre-fix behavior) must understate DRAM energy.
    const Network net = zoo::resnext50();
    const AcceleratorConfig cfg = AcceleratorConfig::paperStudy();
    const Analyzer analyzer(cfg);
    const LayerAnalysis la = analyzer.analyzeLayer(
        net.layer("S2B1_3x3"), dataflows::byName("KC-P"));
    ASSERT_EQ(la.cost.groups, 32.0);

    CostResult ungrouped = la.cost;
    ungrouped.groups = 1.0;
    const double fixed = dse::energyFromSums(
        la.cost.accessSums(), cfg.l1_bytes, cfg.l2_bytes,
        cfg.precision_bytes, cfg.noc.avgLatency(), EnergyModel());
    const double broken = dse::energyFromSums(
        ungrouped.accessSums(), cfg.l1_bytes, cfg.l2_bytes,
        cfg.precision_bytes, cfg.noc.avgLatency(), EnergyModel());
    EXPECT_LT(broken, fixed);
    EXPECT_NEAR(fixed, la.energy(), 1e-9 * la.energy());
}

} // namespace
} // namespace maestro
