/**
 * @file
 * Unit tests for the reuse analysis engine, anchored on the paper's
 * Fig. 5 pedagogical 1-D dataflows whose reuse classification the
 * paper states explicitly.
 */

#include <gtest/gtest.h>

#include "src/core/cluster_analysis.hh"
#include "src/core/reuse_analysis.hh"
#include "src/core/tensor_analysis.hh"
#include "src/dataflows/catalog.hh"

namespace maestro
{
namespace
{

/** The paper's Fig. 4 1-D conv: X'=12 outputs, S=6 weights. */
Layer
conv1d(Count x = 17, Count s = 6)
{
    DimMap<Count> d;
    d[Dim::N] = 1;
    d[Dim::K] = 1;
    d[Dim::C] = 1;
    d[Dim::Y] = 1;
    d[Dim::X] = x;
    d[Dim::R] = 1;
    d[Dim::S] = s;
    return Layer("conv1d", OpType::Conv2D, d);
}

struct Analysis
{
    BoundDataflow bound;
    std::vector<LevelReuse> reuse;
};

Analysis
analyze(const Dataflow &df, const Layer &layer, Count pes)
{
    Analysis a;
    a.bound = bindDataflow(df, layer, pes);
    a.reuse = analyzeReuse(a.bound, analyzeTensors(layer),
                           layer.type() == OpType::DepthwiseConv);
    return a;
}

/** Index of the loop over `dim` in a level's nest, or npos. */
std::size_t
loopIndex(const LevelReuse &ru, Dim dim)
{
    for (std::size_t i = 0; i < ru.loops.size(); ++i) {
        if (!ru.loops[i].is_fold && ru.loops[i].dim == dim)
            return i;
    }
    return static_cast<std::size_t>(-1);
}

// ---- Fig. 5(A): SpatialMap X' / TemporalMap S = output stationary,
//      spatial multicast of weights, partial input halo. ----
TEST(ReuseAnalysis, Fig5aOutputStationary)
{
    const Analysis a =
        analyze(dataflows::fig5OutputStationary(), conv1d(), 3);
    const LevelReuse &ru = a.reuse[0];

    // Outputs are temporally reused (stationary): the S loop advance
    // fetches no output data.
    const std::size_t s_loop = loopIndex(ru, Dim::S);
    ASSERT_NE(s_loop, static_cast<std::size_t>(-1));
    EXPECT_DOUBLE_EQ(
        ru.traffic[TensorKind::Output].delta_per_loop[s_loop], 0.0);

    // Weights are identical across PEs: spatial multicast.
    EXPECT_TRUE(ru.traffic[TensorKind::Weight].fully_shared);

    // Inputs overlap between neighbours (halo): partially shared.
    const TensorLevelTraffic &in = ru.traffic[TensorKind::Input];
    EXPECT_FALSE(in.fully_shared);
    EXPECT_LT(in.spatial_unique_ratio, 1.0);
    EXPECT_GT(in.spatial_unique_ratio, 1.0 / 3.0);

    // Outputs are distributed, not reduced, across PEs.
    EXPECT_FALSE(ru.traffic[TensorKind::Output].spatial_reduction);
}

// ---- Fig. 5(B): TemporalMap X' / SpatialMap S = weight stationary
//      w.r.t. X' iteration, spatial reduction of outputs. ----
TEST(ReuseAnalysis, Fig5bWeightStationary)
{
    const Analysis a =
        analyze(dataflows::fig5WeightStationary(), conv1d(), 3);
    const LevelReuse &ru = a.reuse[0];

    // The X' advance fetches no weight data (weights stationary).
    const std::size_t x_loop = loopIndex(ru, Dim::X);
    ASSERT_NE(x_loop, static_cast<std::size_t>(-1));
    EXPECT_DOUBLE_EQ(
        ru.traffic[TensorKind::Weight].delta_per_loop[x_loop], 0.0);

    // All PEs produce partials for the same outputs: spatial reduction.
    EXPECT_TRUE(ru.traffic[TensorKind::Output].spatial_reduction);

    // The X' advance slides the input window: delta smaller than the
    // full chunk (convolutional reuse).
    const TensorLevelTraffic &in = ru.traffic[TensorKind::Input];
    EXPECT_GT(in.delta_per_loop[x_loop], 0.0);
    EXPECT_LT(in.delta_per_loop[x_loop], in.chunk_volume);
}

// ---- Fig. 5(C): SpatialMap S outer, TemporalMap X' inner. ----
TEST(ReuseAnalysis, Fig5cCollaborativeOutputStationary)
{
    const Analysis a =
        analyze(dataflows::fig5CollabOutputStationary(), conv1d(), 3);
    const LevelReuse &ru = a.reuse[0];

    // Weights distributed across PEs (one filter element each):
    // no multicast of weights.
    EXPECT_FALSE(ru.traffic[TensorKind::Weight].fully_shared);
    // Spatial reduction of outputs across PEs.
    EXPECT_TRUE(ru.traffic[TensorKind::Output].spatial_reduction);
    // Weight stationary across the X' iteration.
    const std::size_t x_loop = loopIndex(ru, Dim::X);
    EXPECT_DOUBLE_EQ(
        ru.traffic[TensorKind::Weight].delta_per_loop[x_loop], 0.0);
}

// ---- Fig. 5(E): SpatialMap(2,2) S exposes partial temporal reuse of
//      inputs via the larger tile. ----
TEST(ReuseAnalysis, Fig5eTiledMapping)
{
    const Analysis a = analyze(
        dataflows::fig5TiledCollabWeightStationary(), conv1d(), 3);
    const LevelReuse &ru = a.reuse[0];
    // Each PE now holds two weights.
    EXPECT_DOUBLE_EQ(ru.traffic[TensorKind::Weight].chunk_volume, 2.0);
    EXPECT_TRUE(ru.traffic[TensorKind::Output].spatial_reduction);
}

// ---- Fig. 5(F): two cluster levels. ----
TEST(ReuseAnalysis, Fig5fClustered)
{
    const Analysis a = analyze(
        dataflows::fig5ClusteredCollabWeightStationary(), conv1d(), 6);
    ASSERT_EQ(a.reuse.size(), 2u);
    // Inner level: S spatially distributed within the cluster,
    // outputs spatially reduced.
    EXPECT_TRUE(
        a.reuse[1].traffic[TensorKind::Output].spatial_reduction);
    EXPECT_FALSE(a.reuse[1].traffic[TensorKind::Weight].fully_shared);
}

// ---- Eyeriss diagonal: inner level of YR-P. ----
TEST(ReuseAnalysis, YrpDiagonalReducesOutputsSpatially)
{
    Layer layer("c", OpType::Conv2D, [] {
        DimMap<Count> d;
        d[Dim::N] = 1;
        d[Dim::K] = 4;
        d[Dim::C] = 4;
        d[Dim::Y] = 16;
        d[Dim::X] = 16;
        d[Dim::R] = 3;
        d[Dim::S] = 3;
        return d;
    }());
    const Analysis a = analyze(dataflows::yrPartitioned(), layer, 12);
    const LevelReuse &inner = a.reuse[1];
    // Co-mapped Y and R shifts cancel in output space: the cluster's
    // PEs produce partials for the same output row (paper Sec. 3.4).
    EXPECT_TRUE(inner.traffic[TensorKind::Output].spatial_reduction);
    // Inputs are disjoint rows across the cluster's PEs.
    EXPECT_FALSE(inner.traffic[TensorKind::Input].fully_shared);
    // Weights: each PE holds a different filter row.
    EXPECT_FALSE(inner.traffic[TensorKind::Weight].fully_shared);
}

// ---- KC-P level 1: input-channel parallelism (NVDLA). ----
TEST(ReuseAnalysis, KcpInnerSpatialReduction)
{
    Layer layer("c", OpType::Conv2D, [] {
        DimMap<Count> d;
        d[Dim::N] = 1;
        d[Dim::K] = 128;
        d[Dim::C] = 128;
        d[Dim::Y] = 14;
        d[Dim::X] = 14;
        d[Dim::R] = 3;
        d[Dim::S] = 3;
        return d;
    }());
    const Analysis a = analyze(dataflows::kcPartitioned(), layer, 256);
    // Level 0: inputs are fully shared across the K-partitioned
    // clusters (spatial multicast).
    EXPECT_TRUE(a.reuse[0].traffic[TensorKind::Input].fully_shared);
    // Level 1: 64-way spatial reduction over input channels.
    EXPECT_TRUE(a.reuse[1].traffic[TensorKind::Output].spatial_reduction);
    EXPECT_FALSE(a.reuse[1].traffic[TensorKind::Weight].fully_shared);
}

// ---- Conservation property: chunk + deltas sweep the extent. ----
TEST(ReuseAnalysis, WeightTrafficSweepsWholeTensorForCp)
{
    // C-P iterates K temporally with chunk 1 and spatially maps C;
    // per-unit weight traffic over a full execution must equal the
    // unit's share of the weight tensor times the K revisits.
    Layer layer = conv1d();
    const Analysis a =
        analyze(dataflows::cPartitioned(), layer, 4);
    const LevelReuse &ru = a.reuse[0];
    // 1-D conv, C=1: single PE active; weight = 6 elements; X' loop
    // forces no weight refetch (weights coupled only to S here).
    const TensorLevelTraffic &w = ru.traffic[TensorKind::Weight];
    EXPECT_DOUBLE_EQ(w.chunk_volume, 6.0);
    EXPECT_DOUBLE_EQ(w.traffic_per_unit, 6.0);
}

TEST(ReuseAnalysis, TotalStepsMatchesLoopProduct)
{
    Layer layer("c", OpType::Conv2D, [] {
        DimMap<Count> d;
        d[Dim::N] = 1;
        d[Dim::K] = 8;
        d[Dim::C] = 8;
        d[Dim::Y] = 10;
        d[Dim::X] = 10;
        d[Dim::R] = 3;
        d[Dim::S] = 3;
        return d;
    }());
    const Analysis a = analyze(dataflows::xPartitioned(), layer, 8);
    const LevelReuse &ru = a.reuse[0];
    double product = 1.0;
    for (const auto &loop : ru.loops)
        product *= static_cast<double>(loop.steps);
    EXPECT_DOUBLE_EQ(product,
                     static_cast<double>(a.bound.levels[0].total_steps));
}

} // namespace
} // namespace maestro
