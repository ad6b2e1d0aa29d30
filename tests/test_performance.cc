/**
 * @file
 * Unit tests for the performance analysis engine: runtime bounds,
 * bandwidth sensitivity, hardware-support effects, and bottleneck
 * classification.
 */

#include <gtest/gtest.h>

#include "src/core/analyzer.hh"
#include "src/core/cluster_analysis.hh"
#include "src/core/flat_analysis.hh"
#include "src/core/performance_analysis.hh"
#include "src/core/reuse_analysis.hh"
#include "src/core/tensor_analysis.hh"
#include "src/dataflows/catalog.hh"
#include "src/model/zoo.hh"

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

TEST(Performance, RuntimeAtLeastComputeOnly)
{
    const Layer layer = conv(64, 64, 56, 3, 1, 1);
    for (const Dataflow &df : dataflows::table3()) {
        const LayerAnalysis la = analyze(layer, df);
        EXPECT_GE(la.runtime,
                  la.perf.compute_only_runtime * (1.0 - 1e-9))
            << df.name();
    }
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
    // the cost engine and the simulator count them. So a NoC-bound
    // layer at input density d must cost what the dense layer costs
    // once its input NoC and DRAM volumes are scaled by d.
    const Layer dense = conv(64, 64, 56, 3, 1, 1);
    AcceleratorConfig cfg = AcceleratorConfig::paperStudy();
    cfg.noc = NocModel(1.0, 1.0);
    const Dataflow df = dataflows::kcPartitioned();
    for (double d : {0.25, 0.5, 0.8}) {
        SCOPED_TRACE(d);
        Layer sparse = dense;
        sparse.inputDensity(d);
        const BoundDataflow bound = bindDataflow(df, sparse, cfg.num_pes);
        const TensorInfo tensors = analyzeTensors(sparse);
        const std::vector<LevelReuse> reuse =
            analyzeReuse(bound, tensors, false);
        const FlatAnalysis flat =
            analyzeFlat(bound, reuse, tensors, false, cfg);
        const PerformanceResult got =
            analyzePerformance(bound, reuse, flat, sparse, cfg, d);
        EXPECT_EQ(got.bottleneck, "noc");

        std::vector<LevelReuse> scaled_reuse = reuse;
        TensorLevelTraffic &top =
            scaled_reuse.front().traffic[TensorKind::Input];
        top.chunk_volume *= d;
        for (double &delta : top.delta_per_loop)
            delta *= d;
        FlatAnalysis scaled = flat;
        scaled.pe_chunk[TensorKind::Input] *= d;
        for (FlatLoop &fl : scaled.loops)
            fl.delta_pe[TensorKind::Input] *= d;
        const PerformanceResult want = analyzePerformance(
            bound, scaled_reuse, scaled, dense, cfg, d);
        EXPECT_NEAR(got.runtime, want.runtime, 1e-12 * want.runtime);
        EXPECT_NEAR(got.noc_bw_requirement, want.noc_bw_requirement,
                    1e-12 * want.noc_bw_requirement);
    }
}

} // namespace
} // namespace maestro
