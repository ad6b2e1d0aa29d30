/**
 * @file
 * Unit tests for the flattened nest analysis: cross-level
 * stationarity, multicast collapsing, and traffic conservation.
 */

#include <gtest/gtest.h>

#include "src/core/flat_analysis.hh"
#include "src/core/performance_analysis.hh"
#include "src/dataflows/catalog.hh"

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

struct Scenario
{
    BoundDataflow bound;
    std::vector<LevelReuse> reuse;
    FlatAnalysis flat;
};

Scenario
run(const Dataflow &df, const Layer &layer, Count pes,
    AcceleratorConfig config = AcceleratorConfig())
{
    config.num_pes = pes;
    Scenario s;
    s.bound = bindDataflow(df, layer, pes);
    const TensorInfo tensors = analyzeTensors(layer);
    const bool dw = layer.type() == OpType::DepthwiseConv;
    s.reuse = analyzeReuse(s.bound, tensors, dw);
    s.flat = analyzeFlat(s.bound, s.reuse, tensors, dw, config);
    return s;
}

double
l2SupplyElements(const Scenario &s, TensorKind t)
{
    return s.flat.l1_fill_per_pe[t] * s.flat.noc_mult[t];
}

TEST(FlatAnalysis, KcpWeightsReadExactlyOnce)
{
    // NVDLA-style KC-P keeps each PE's weights resident while the
    // whole output feature map streams: total L2 weight supply must
    // equal the weight tensor size (each element read exactly once).
    const Layer layer = conv(64, 64, 28, 3, 1, 1);
    const Scenario s = run(dataflows::kcPartitioned(), layer, 256);
    EXPECT_NEAR(l2SupplyElements(s, TensorKind::Weight),
                static_cast<double>(layer.tensorVolume(TensorKind::Weight)),
                1.0);
}

TEST(FlatAnalysis, KcpOutputSweepLoopsAreWeightStationary)
{
    const Scenario s =
        run(dataflows::kcPartitioned(), conv(64, 64, 28, 3, 1, 1), 256);
    // Find the Y and X loops (level 0 temporal): weight delta is zero.
    bool checked = false;
    for (const auto &fl : s.flat.loops) {
        if (!fl.is_fold && (fl.dim == Dim::Y || fl.dim == Dim::X)) {
            EXPECT_DOUBLE_EQ(fl.delta_pe[TensorKind::Weight], 0.0);
            checked = true;
        }
    }
    EXPECT_TRUE(checked);
}

TEST(FlatAnalysis, InputSlidingWindowDelta)
{
    const Scenario s =
        run(dataflows::kcPartitioned(), conv(64, 64, 28, 3, 1, 1), 256);
    // The innermost X loop slides the input window: the per-advance
    // input delta is one column of the PE's chunk (stride 1).
    const FlatLoop *x_loop = nullptr;
    for (const auto &fl : s.flat.loops) {
        if (!fl.is_fold && fl.dim == Dim::X)
            x_loop = &fl;
    }
    ASSERT_NE(x_loop, nullptr);
    // PE input chunk: C=1 x Y=3 x X=3; sliding by 1 column -> 3 new.
    EXPECT_DOUBLE_EQ(x_loop->delta_pe[TensorKind::Input], 3.0);
}

TEST(FlatAnalysis, MulticastCollapsesSharedInputs)
{
    // KC-P level 0 shares the input across the 4 K-partitioned
    // clusters: with multicast the NoC multiplier is 4x smaller than
    // the delivered multiplier.
    const Scenario s =
        run(dataflows::kcPartitioned(), conv(64, 64, 28, 3, 1, 1), 256);
    EXPECT_NEAR(s.flat.delivered_mult /
                    s.flat.noc_mult[TensorKind::Input],
                4.0, 1e-9);
}

TEST(FlatAnalysis, NoMulticastHardwareReplicatesTraffic)
{
    AcceleratorConfig cfg;
    cfg.spatial_multicast = false;
    const Layer layer = conv(64, 64, 28, 3, 1, 1);
    Scenario with = run(dataflows::kcPartitioned(), layer, 256);
    Scenario without = run(dataflows::kcPartitioned(), layer, 256, cfg);
    EXPECT_GT(without.flat.noc_mult[TensorKind::Input],
              with.flat.noc_mult[TensorKind::Input]);
    // Weights are disjoint per PE: multicast support changes nothing.
    EXPECT_DOUBLE_EQ(without.flat.noc_mult[TensorKind::Weight],
                     with.flat.noc_mult[TensorKind::Weight]);
}

TEST(FlatAnalysis, ReductionHardwareCollapsesCommits)
{
    AcceleratorConfig cfg;
    cfg.spatial_reduction = false;
    const Layer layer = conv(64, 64, 28, 3, 1, 1);
    Scenario with = run(dataflows::kcPartitioned(), layer, 256);
    Scenario without = run(dataflows::kcPartitioned(), layer, 256, cfg);
    // KC-P's inner level reduces across 64 PEs: without a fan-in tree
    // every partial goes up individually.
    EXPECT_NEAR(without.flat.noc_mult[TensorKind::Output] /
                    with.flat.noc_mult[TensorKind::Output],
                64.0, 1e-9);
}

TEST(FlatAnalysis, TotalPeStepsMatchesLevelProduct)
{
    // computeFloor owns the step count; the flattened loops' advances
    // must sum to one less (each step after the first advances one
    // loop), which is what makes the compute floor a runtime bound.
    const Layer layer = conv(64, 64, 56, 3, 1, 1);
    const Scenario s = run(dataflows::yrPartitioned(), layer, 256);
    double expect = 1.0;
    for (const auto &ru : s.reuse) {
        for (const auto &loop : ru.loops)
            expect *= static_cast<double>(loop.steps);
    }
    const ComputeFloor floor =
        computeFloor(s.bound, layer, AcceleratorConfig());
    EXPECT_DOUBLE_EQ(floor.total_pe_steps, expect);
    double advances = 0.0;
    for (const FlatLoop &fl : s.flat.loops)
        advances += fl.advance_count;
    EXPECT_EQ(advances, floor.total_pe_steps - 1.0);
}

TEST(FlatAnalysis, ActivePesNeverExceedArray)
{
    for (const Dataflow &df : dataflows::table3()) {
        const Scenario s = run(df, conv(32, 16, 28, 3, 1, 1), 64);
        EXPECT_LE(s.flat.active_pes, 64.0 + 1e-9) << df.name();
        EXPECT_GE(s.flat.active_pes, 1.0) << df.name();
    }
}

TEST(FlatAnalysis, L1FillAtLeastChunk)
{
    for (const Dataflow &df : dataflows::table3()) {
        const Scenario s = run(df, conv(32, 32, 28, 3, 1, 1), 64);
        for (TensorKind t : kAllTensors) {
            EXPECT_GE(s.flat.l1_fill_per_pe[t],
                      s.flat.pe_chunk[t] - 1e-9)
                << df.name() << " " << tensorName(t);
        }
    }
}

TEST(FlatAnalysis, FinalOutputsMatchLayer)
{
    const Layer layer = conv(32, 16, 28, 3, 1, 1);
    for (const Dataflow &df : dataflows::table3()) {
        const Scenario s = run(df, layer, 64);
        EXPECT_DOUBLE_EQ(
            s.flat.final_outputs,
            static_cast<double>(layer.tensorVolume(TensorKind::Output)))
            << df.name();
    }
}

TEST(FlatAnalysis, EgressCoversFinalOutputs)
{
    const Layer layer = conv(32, 16, 28, 3, 1, 1);
    for (const Dataflow &df : dataflows::table3()) {
        const Scenario s = run(df, layer, 64);
        const double commits =
            s.flat.egress_per_pe * s.flat.noc_mult[TensorKind::Output];
        EXPECT_GE(commits, s.flat.final_outputs * (1.0 - 1e-9))
            << df.name();
    }
}

} // namespace
} // namespace maestro
