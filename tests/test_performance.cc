/**
 * @file
 * Unit tests for the performance analysis engine: runtime bounds,
 * bandwidth sensitivity, hardware-support effects, and bottleneck
 * classification.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "src/common/error.hh"
#include "src/core/analyzer.hh"
#include "src/core/cluster_analysis.hh"
#include "src/core/flat_analysis.hh"
#include "src/core/performance_analysis.hh"
#include "src/core/reuse_analysis.hh"
#include "src/core/tensor_analysis.hh"
#include "src/dataflows/catalog.hh"
#include "src/mapper/search_space.hh"
#include "src/model/zoo.hh"
#include "src/sim/crossval.hh"

namespace maestro
{
namespace
{

Layer
conv(Count k, Count c, Count hw, Count rs, Count stride = 1,
     Count pad = 0)
{
    DimMap<Count> d;
    d[Dim::N] = 1;
    d[Dim::K] = k;
    d[Dim::C] = c;
    d[Dim::Y] = hw;
    d[Dim::X] = hw;
    d[Dim::R] = rs;
    d[Dim::S] = rs;
    Layer l("test", OpType::Conv2D, d);
    l.stride(stride).padding(pad);
    return l;
}

LayerAnalysis
analyze(const Layer &layer, const Dataflow &df,
        AcceleratorConfig cfg = AcceleratorConfig::paperStudy())
{
    return Analyzer(cfg).analyzeLayer(layer, df);
}

/**
 * The compute floor of one analysed mapping, from its binding alone,
 * must equal the analysis's own compute_only_runtime x groups bit for
 * bit, and the layer's runtime must not fall below it: the mapper's
 * bound prune skips a candidate on exactly that floor. Returns false
 * when the mapping does not analyse.
 */
bool
checkComputeFloor(const Analyzer &analyzer, const Layer &layer,
                  const Dataflow &df)
{
    LayerAnalysis la;
    try {
        la = analyzer.analyzeLayer(layer, df);
    } catch (const Error &) {
        return false;
    }
    const AcceleratorConfig &cfg = analyzer.config();
    const double groups = static_cast<double>(layer.groupsVal());
    const double floor =
        computeFloor(bindDataflow(df, layer, cfg.num_pes), layer, cfg)
            .compute_only_runtime *
        groups;
    EXPECT_EQ(floor, la.perf.compute_only_runtime * groups);
    EXPECT_GE(la.runtime, floor);
    return true;
}

TEST(Performance, RuntimeAtLeastComputeOnly)
{
    const Layer layer = conv(64, 64, 56, 3, 1, 1);
    for (const Dataflow &df : dataflows::table3()) {
        const LayerAnalysis la = analyze(layer, df);
        EXPECT_GE(la.runtime,
                  la.perf.compute_only_runtime * (1.0 - 1e-9))
            << df.name();
    }

    // Every candidate of a trimmed mapper space on five operator
    // shapes (tests/test_mapper.cc's sample corpus).
    mapper::SpaceOptions space_options;
    space_options.cluster_sizes = {1, 4};
    space_options.channel_tiles = {1, 8};
    space_options.activation_tiles = {1, 2};
    DimMap<Count> dw_dims(1);
    dw_dims[Dim::C] = 16;
    dw_dims[Dim::Y] = dw_dims[Dim::X] = 14;
    dw_dims[Dim::R] = dw_dims[Dim::S] = 3;
    DimMap<Count> fc_dims(1);
    fc_dims[Dim::K] = 32;
    fc_dims[Dim::C] = 24;
    DimMap<Count> pw_dims(1);
    pw_dims[Dim::K] = 24;
    pw_dims[Dim::C] = 3;
    pw_dims[Dim::Y] = pw_dims[Dim::X] = 14;
    const Layer shapes[] = {
        conv(16, 8, 18, 3),
        Layer("dwconv", OpType::DepthwiseConv, dw_dims),
        Layer("fc", OpType::FullyConnected, fc_dims),
        conv(8, 4, 17, 5, 2),
        Layer("pointwise", OpType::PointwiseConv, pw_dims),
    };
    const Analyzer paper(AcceleratorConfig::paperStudy());
    std::size_t checked = 0;
    for (const Layer &shape : shapes) {
        SCOPED_TRACE(shape.name());
        const mapper::SearchSpace space =
            mapper::buildSearchSpace(shape, space_options);
        for (std::size_t i = 0; i < mapper::candidateCount(space); ++i) {
            SCOPED_TRACE(i);
            checked += checkComputeFloor(paper, shape,
                                         mapper::candidateAt(space, i));
        }
    }
    EXPECT_GT(checked, 1000u);

    // Seed 7's first 1000 crossval triples: sparse layers, vector
    // widths and array sizes the mapper corpus does not reach.
    checked = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const crossval::TripleSpec spec = crossval::sampleTriple(7, i);
        SCOPED_TRACE(spec.describe());
        checked += checkComputeFloor(Analyzer(spec.config()),
                                     spec.layer(),
                                     dataflows::byName(spec.dataflow));
    }
    EXPECT_GT(checked, 900u);
}

TEST(Performance, RuntimeAtLeastSerialOverActivePes)
{
    // MACs / active PEs is a hard lower bound on cycles.
    const Layer layer = conv(64, 64, 56, 3, 1, 1);
    for (const Dataflow &df : dataflows::table3()) {
        const LayerAnalysis la = analyze(layer, df);
        const double bound = la.total_macs / la.active_pes;
        EXPECT_GE(la.runtime, bound * 0.95) << df.name();
    }
}

TEST(Performance, MoreBandwidthNeverHurts)
{
    const Layer layer = conv(64, 64, 112, 3, 1, 1);
    for (const Dataflow &df : dataflows::table3()) {
        double prev = 0.0;
        for (double bw : {4.0, 8.0, 16.0, 32.0, 64.0, 128.0}) {
            AcceleratorConfig cfg = AcceleratorConfig::paperStudy();
            cfg.noc = NocModel(bw, 1.0);
            const LayerAnalysis la = analyze(layer, df, cfg);
            if (prev > 0.0) {
                EXPECT_LE(la.runtime, prev * (1.0 + 1e-9))
                    << df.name() << " bw " << bw;
            }
            prev = la.runtime;
        }
    }
}

TEST(Performance, VectorWidthSpeedsCompute)
{
    const Layer layer = conv(64, 64, 28, 3, 1, 1);
    AcceleratorConfig narrow = AcceleratorConfig::paperStudy();
    AcceleratorConfig wide = narrow;
    wide.vector_width = 4;
    const LayerAnalysis a =
        analyze(layer, dataflows::kcPartitioned(), narrow);
    const LayerAnalysis b =
        analyze(layer, dataflows::kcPartitioned(), wide);
    EXPECT_LT(b.perf.compute_only_runtime,
              a.perf.compute_only_runtime);
}

TEST(Performance, LosingMulticastNeverSpeedsUp)
{
    const Layer layer = conv(64, 64, 56, 3, 1, 1);
    AcceleratorConfig with = AcceleratorConfig::paperStudy();
    AcceleratorConfig without = with;
    without.spatial_multicast = false;
    for (const Dataflow &df : dataflows::table3()) {
        const LayerAnalysis a = analyze(layer, df, with);
        const LayerAnalysis b = analyze(layer, df, without);
        EXPECT_GE(b.runtime, a.runtime * (1.0 - 1e-9)) << df.name();
    }
}

TEST(Performance, BiggerL2CutsDramTraffic)
{
    // KC-P refetches the input once per K fold; an L2 that holds the
    // whole input collapses that to one DRAM fetch.
    const Layer layer = conv(512, 512, 14, 3, 1, 1);
    AcceleratorConfig small = AcceleratorConfig::paperStudy();
    small.l2_bytes = 16 * 1024;
    AcceleratorConfig big = small;
    big.l2_bytes = 1 << 20;
    const LayerAnalysis a =
        analyze(layer, dataflows::kcPartitioned(), small);
    const LayerAnalysis b =
        analyze(layer, dataflows::kcPartitioned(), big);
    EXPECT_GT(a.cost.dram_reads[TensorKind::Input],
              b.cost.dram_reads[TensorKind::Input] * 10.0);
    EXPECT_DOUBLE_EQ(
        b.cost.dram_reads[TensorKind::Input],
        static_cast<double>(layer.tensorVolume(TensorKind::Input)));
}

TEST(Performance, BottleneckClassification)
{
    const Layer layer = conv(64, 64, 56, 3, 1, 1);
    // Starved NoC: must be "noc".
    AcceleratorConfig starved = AcceleratorConfig::paperStudy();
    starved.noc = NocModel(1.0, 1.0);
    EXPECT_EQ(analyze(layer, dataflows::kcPartitioned(), starved)
                  .bottleneck,
              "noc");
    // Tiny off-chip pipe with a huge NoC: must be "offchip".
    AcceleratorConfig dram_bound = AcceleratorConfig::paperStudy();
    dram_bound.noc = NocModel(1024.0, 1.0);
    dram_bound.offchip = NocModel(0.25, 8.0);
    dram_bound.l2_bytes = 1024; // nothing resident
    EXPECT_EQ(analyze(layer, dataflows::kcPartitioned(), dram_bound)
                  .bottleneck,
              "offchip");
}

TEST(Performance, FullyConnectedRuns)
{
    // FC layers (Y=X=R=S=1) must analyze under every dataflow.
    DimMap<Count> d(1);
    d[Dim::K] = 4096;
    d[Dim::C] = 4096;
    Layer fc("fc", OpType::FullyConnected, d);
    for (const Dataflow &df : dataflows::table3()) {
        const LayerAnalysis la = analyze(fc, df);
        EXPECT_GT(la.runtime, 0.0) << df.name();
        EXPECT_DOUBLE_EQ(la.total_macs, 4096.0 * 4096.0) << df.name();
    }
}

TEST(Performance, SparsityScalesComputeAndTraffic)
{
    Layer dense = conv(64, 64, 28, 3, 1, 1);
    Layer sparse = conv(64, 64, 28, 3, 1, 1);
    sparse.weightDensity(0.5);
    const LayerAnalysis a = analyze(dense, dataflows::kcPartitioned());
    const LayerAnalysis b = analyze(sparse, dataflows::kcPartitioned());
    EXPECT_NEAR(b.total_macs, 0.5 * a.total_macs, 1.0);
    EXPECT_NEAR(b.cost.l2_reads[TensorKind::Weight],
                0.5 * a.cost.l2_reads[TensorKind::Weight],
                0.01 * a.cost.l2_reads[TensorKind::Weight]);
    EXPECT_LT(b.runtime, a.runtime);
}

TEST(Performance, SparseInputsCrossTheNocAtTheirDensity)
{
    // Only nonzero inputs cross the NoC and the off-chip interface, as
    // the cost engine and the simulator count them. So every case of
    // the traffic record at input density d moves d times the dense
    // layer's input volumes, and the same weight and output volumes.
    const Layer dense = conv(64, 64, 56, 3, 1, 1);
    AcceleratorConfig cfg = AcceleratorConfig::paperStudy();
    cfg.noc = NocModel(1.0, 1.0);
    const Dataflow df = dataflows::kcPartitioned();
    const BoundDataflow bound = bindDataflow(df, dense, cfg.num_pes);
    const TensorInfo tensors = analyzeTensors(dense);
    const std::vector<LevelReuse> reuse =
        analyzeReuse(bound, tensors, false);
    const FlatAnalysis flat =
        analyzeFlat(bound, reuse, tensors, false, cfg);
    const PerformanceResult base =
        analyzePerformance(bound, reuse, flat, dense, cfg);
    // The dense input is L2-resident, so the sparse one is too: both
    // records apply the same residency correction, and density alone
    // separates their DRAM volumes.
    ASSERT_LT(base.dram_fill[TensorKind::Input],
              base.dram_fill_model[TensorKind::Input]);

    const auto expectScaled = [](const TrafficCase &got,
                                 const TrafficCase &want, double d) {
        EXPECT_EQ(got.advance, want.advance);
        for (TensorKind t : {TensorKind::Weight, TensorKind::Output}) {
            EXPECT_EQ(got.noc[t], want.noc[t]);
            EXPECT_EQ(got.dram[t], want.dram[t]);
        }
        EXPECT_EQ(got.noc[TensorKind::Input],
                  want.noc[TensorKind::Input] * d);
        EXPECT_EQ(got.dram[TensorKind::Input],
                  want.dram[TensorKind::Input] * d);
    };
    for (double d : {0.25, 0.5, 0.8}) {
        SCOPED_TRACE(d);
        Layer sparse = dense;
        sparse.inputDensity(d);
        const PerformanceResult got =
            analyzePerformance(bound, reuse, flat, sparse, cfg);
        EXPECT_EQ(got.bottleneck, "noc");
        ASSERT_EQ(got.dram_fill[TensorKind::Input],
                  base.dram_fill[TensorKind::Input] * d);
        expectScaled(got.initial, base.initial, d);
        ASSERT_EQ(got.cases.size(), base.cases.size());
        for (std::size_t i = 0; i < got.cases.size(); ++i) {
            SCOPED_TRACE(i);
            expectScaled(got.cases[i], base.cases[i], d);
        }
        EXPECT_LT(got.runtime, base.runtime);
    }
}

} // namespace
} // namespace maestro
