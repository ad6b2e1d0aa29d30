/**
 * @file
 * Unit tests for the cluster analysis engine: binding dataflows to
 * layers and PE arrays (steps, folds, clamping, stride, inference).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "src/common/error.hh"
#include "src/core/cluster_analysis.hh"
#include "src/dataflows/catalog.hh"
#include "tests/sim_cases.hh"

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

Layer
conv(Count k, Count c, Count hw, Count rs, Count stride = 1,
     Count pad = 0)
{
    Layer l("test", OpType::Conv2D, dims(1, k, c, hw, hw, rs, rs));
    l.stride(stride).padding(pad);
    return l;
}

const BoundDirective &
find(const BoundLevel &level, Dim d)
{
    for (const auto &bd : level.directives) {
        if (bd.dim == d)
            return bd;
    }
    throw Error("directive not found");
}

TEST(ClusterAnalysis, KcpTwoLevelStructure)
{
    const BoundDataflow bound = bindDataflow(
        dataflows::kcPartitioned(), conv(512, 512, 14, 3, 1, 1), 256);
    ASSERT_EQ(bound.levels.size(), 2u);
    EXPECT_EQ(bound.levels[0].num_units, 4);  // 256 / Cluster(64)
    EXPECT_EQ(bound.levels[1].num_units, 64); // within a cluster
    EXPECT_EQ(bound.total_pes, 256);
}

TEST(ClusterAnalysis, KcpLevel0Mapping)
{
    const Layer layer = conv(512, 512, 14, 3, 1, 1);
    const BoundDataflow bound =
        bindDataflow(dataflows::kcPartitioned(), layer, 256);
    const BoundLevel &top = bound.levels[0];

    // SpatialMap(1,1) K: K=512 positions across 4 clusters.
    const BoundDirective &k = find(top, Dim::K);
    EXPECT_TRUE(k.spatial());
    EXPECT_EQ(k.steps, 512);
    EXPECT_EQ(top.spatial_steps, 512);
    EXPECT_EQ(top.spatial_folds, 128);
    EXPECT_DOUBLE_EQ(top.active_units, 4.0);

    // TemporalMap(64,64) C: 8 chunks of 64.
    const BoundDirective &c = find(top, Dim::C);
    EXPECT_EQ(c.size, 64);
    EXPECT_EQ(c.steps, 8);

    // TemporalMap(Sz(R),1) Y: output-space stepping, one output row
    // per position -> Y' = 14 steps (padded input 16).
    const BoundDirective &y = find(top, Dim::Y);
    EXPECT_TRUE(y.out_space);
    EXPECT_EQ(y.steps, 14);
    EXPECT_EQ(y.offset_in, 1);
}

TEST(ClusterAnalysis, KcpLevel1InheritsChunks)
{
    const BoundDataflow bound = bindDataflow(
        dataflows::kcPartitioned(), conv(512, 512, 14, 3, 1, 1), 256);
    const BoundLevel &inner = bound.levels[1];
    EXPECT_EQ(inner.extents[Dim::K], 1);
    EXPECT_EQ(inner.extents[Dim::C], 64);
    EXPECT_EQ(inner.extents[Dim::Y], 3); // Sz(R) chunk
    EXPECT_EQ(inner.extents[Dim::R], 3);

    // SpatialMap(1,1) C across 64 PEs: no folding.
    const BoundDirective &c = find(inner, Dim::C);
    EXPECT_TRUE(c.spatial());
    EXPECT_EQ(c.steps, 64);
    EXPECT_EQ(inner.spatial_folds, 1);
    EXPECT_DOUBLE_EQ(inner.active_units, 64.0);
}

TEST(ClusterAnalysis, YrpCoMappedDiagonal)
{
    const BoundDataflow bound = bindDataflow(
        dataflows::yrPartitioned(), conv(64, 64, 224, 3, 1, 1), 256);
    ASSERT_EQ(bound.levels.size(), 2u);
    EXPECT_EQ(bound.levels[0].num_units, 85); // 256 / Cluster(3)
    EXPECT_EQ(bound.levels[1].num_units, 3);

    const BoundLevel &inner = bound.levels[1];
    const BoundDirective &y = find(inner, Dim::Y);
    const BoundDirective &r = find(inner, Dim::R);
    EXPECT_TRUE(y.spatial());
    EXPECT_TRUE(r.spatial());
    // Chunk of 1 row < filter 3: index-space stepping, 3 positions.
    EXPECT_FALSE(y.out_space);
    EXPECT_EQ(y.steps, 3);
    EXPECT_EQ(r.steps, 3);
    EXPECT_EQ(inner.spatial_steps, 3);
    EXPECT_EQ(inner.spatial_folds, 1);
    // Both dims share the unit index (diagonal mapping).
    EXPECT_EQ(inner.spatial_shift[Dim::Y], 1);
    EXPECT_EQ(inner.spatial_shift[Dim::R], 1);
}

TEST(ClusterAnalysis, ChunkClampedToExtent)
{
    // KC-P's TemporalMap(64,64) C on a 3-channel layer.
    const BoundDataflow bound = bindDataflow(
        dataflows::kcPartitioned(), conv(64, 3, 224, 3, 1, 1), 256);
    const BoundDirective &c = find(bound.levels[0], Dim::C);
    EXPECT_EQ(c.size, 3);
    EXPECT_EQ(c.steps, 1);
    // Inner level: only 3 of the 64 PEs get work.
    EXPECT_DOUBLE_EQ(bound.levels[1].active_units, 3.0);
}

TEST(ClusterAnalysis, InferredDirectivesCoverAllDims)
{
    const BoundDataflow bound = bindDataflow(
        dataflows::cPartitioned(), conv(4, 6, 8, 3), 16);
    const BoundLevel &level = bound.levels[0];
    DimMap<bool> seen(false);
    for (const auto &bd : level.directives)
        seen[bd.dim] = true;
    for (Dim d : kAllDims)
        EXPECT_TRUE(seen[d]) << dimName(d);
    // N is unmapped by C-P: inferred, full extent, single step.
    const BoundDirective &n = find(level, Dim::N);
    EXPECT_TRUE(n.inferred);
    EXPECT_EQ(n.steps, 1);
    EXPECT_EQ(n.size, 1);
}

TEST(ClusterAnalysis, StrideScalesActivationOffsets)
{
    // AlexNet CONV1-like: stride 4.
    const BoundDataflow bound = bindDataflow(
        dataflows::kcPartitioned(), conv(96, 3, 227, 11, 4), 256);
    const BoundDirective &y = find(bound.levels[0], Dim::Y);
    EXPECT_TRUE(y.out_space);
    EXPECT_EQ(y.steps, 55);     // output rows
    EXPECT_EQ(y.offset_in, 4);  // one output row = 4 input rows
    EXPECT_EQ(y.size, 11);      // Sz(R)
}

TEST(ClusterAnalysis, SlidingWindowSteps)
{
    // YX-P level 0: TemporalMap(8+Sz(S)-1, 8) X -> ceil(X'/8) chunks.
    const BoundDataflow bound = bindDataflow(
        dataflows::yxPartitioned(), conv(64, 64, 224, 3, 1, 1), 256);
    const BoundDirective &x = find(bound.levels[0], Dim::X);
    EXPECT_EQ(x.size, 10); // 8 outputs need 8+3-1 inputs
    EXPECT_EQ(x.steps, 28); // 224 outputs / 8 per chunk
}

TEST(ClusterAnalysis, StrideClampsOutputSpaceSlide)
{
    // YX-P's X directive is Map(Sz(S)+7, 8): at stride 2 a 10-wide
    // chunk produces only convOutputs(10, 3, 2) = 4 output columns,
    // so the 8-output slide must clamp to 4 or half the columns are
    // never scheduled (ROADMAP item 6).
    const BoundDataflow bound = bindDataflow(
        dataflows::yxPartitioned(), conv(64, 64, 224, 3, 2, 1), 256);
    const BoundDirective &x = find(bound.levels[0], Dim::X);
    EXPECT_TRUE(x.out_space);
    EXPECT_EQ(x.size, 10);      // 8+Sz(S)-1 inputs
    EXPECT_EQ(x.offset_out, 4); // clamped from 8 to chunk outputs
    EXPECT_EQ(x.offset_in, 8);  // output slide x stride
    // 226 padded inputs -> 112 output columns, 4 per chunk.
    EXPECT_EQ(x.steps, 28);
}

TEST(ClusterAnalysis, ClusterClampsToArray)
{
    // Cluster(64) on a 32-PE array degrades to one 32-PE cluster.
    const BoundDataflow bound = bindDataflow(
        dataflows::kcPartitioned(), conv(64, 64, 28, 3, 1, 1), 32);
    EXPECT_EQ(bound.levels[0].num_units, 1);
    EXPECT_EQ(bound.levels[1].num_units, 32);
}

TEST(ClusterAnalysis, FoldingWhenUnitsScarce)
{
    // C-P with 16 PEs on 64 channels: 4 folds.
    const BoundDataflow bound =
        bindDataflow(dataflows::cPartitioned(), conv(4, 64, 8, 3), 16);
    const BoundLevel &level = bound.levels[0];
    EXPECT_EQ(level.spatial_steps, 64);
    EXPECT_EQ(level.spatial_folds, 4);
    EXPECT_DOUBLE_EQ(level.active_units, 16.0);
}

TEST(ClusterAnalysis, TotalStepsIncludesFolds)
{
    const BoundDataflow bound =
        bindDataflow(dataflows::cPartitioned(), conv(4, 64, 8, 3), 16);
    const BoundLevel &level = bound.levels[0];
    // Loops: K (4 steps), fold (4), Y' (6), X' (6).
    EXPECT_EQ(level.total_steps, 4 * 4 * 6 * 6);
}

/** The bits of a double, so a comparison fails on any bit change. */
std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** Every field of every level of `got` against `want`; `avg_chunk`
 *  and `active_units` compared as bits. */
void
expectSameBinding(const BoundDataflow &got, const BoundDataflow &want)
{
    EXPECT_EQ(got.total_pes, want.total_pes);
    ASSERT_EQ(got.levels.size(), want.levels.size());
    for (std::size_t l = 0; l < want.levels.size(); ++l) {
        SCOPED_TRACE("level " + std::to_string(l));
        const BoundLevel &a = got.levels[l];
        const BoundLevel &b = want.levels[l];
        EXPECT_EQ(a.num_units, b.num_units);
        EXPECT_TRUE(a.extents == b.extents);
        EXPECT_TRUE(a.chunk == b.chunk);
        for (Dim d : kAllDims)
            EXPECT_EQ(bits(a.avg_chunk[d]), bits(b.avg_chunk[d]))
                << dimName(d);
        EXPECT_TRUE(a.spatial_shift == b.spatial_shift);
        ASSERT_EQ(a.directives.size(), b.directives.size());
        for (std::size_t i = 0; i < b.directives.size(); ++i) {
            SCOPED_TRACE("directive " + std::to_string(i));
            const BoundDirective &x = a.directives[i];
            const BoundDirective &y = b.directives[i];
            EXPECT_EQ(x.kind, y.kind);
            EXPECT_EQ(x.dim, y.dim);
            EXPECT_EQ(x.size, y.size);
            EXPECT_EQ(x.offset_in, y.offset_in);
            EXPECT_EQ(x.offset_out, y.offset_out);
            EXPECT_EQ(x.out_space, y.out_space);
            EXPECT_EQ(x.steps, y.steps);
            EXPECT_EQ(x.edge_size, y.edge_size);
            EXPECT_EQ(x.inferred, y.inferred);
        }
        EXPECT_EQ(a.spatial_steps, b.spatial_steps);
        EXPECT_EQ(a.spatial_folds, b.spatial_folds);
        EXPECT_EQ(bits(a.active_units), bits(b.active_units));
        EXPECT_EQ(a.total_steps, b.total_steps);
        EXPECT_EQ(a.stride, b.stride);
        EXPECT_EQ(a.first_spatial, b.first_spatial);
    }
}

TEST(ClusterAnalysis, ReusedStorageCarriesNoStaleState)
{
    // One BoundDataflow takes three levels, then one, then a bind that
    // throws after writing level 0 (its inner map size evaluates to
    // 0), then two: each successful bind must equal a fresh one.
    const simtest::SimCase three = simtest::threeLevelCase();
    const Layer &layer = three.layer;
    const Count pes = three.config.num_pes;
    const Dataflow bad(
        "Bad", {Directive::spatial(Dim::K, SizeExpr::of(1),
                                   SizeExpr::of(1)),
                Directive::cluster(SizeExpr::of(4)),
                Directive::spatial(Dim::C, SizeExpr::sizeOf(Dim::R, -3),
                                   SizeExpr::of(1))});
    ASSERT_EQ(layer.effectiveDim(Dim::R), 3);

    BoundDataflow reused;
    bindDataflow(three.dataflow, layer, pes, reused);
    ASSERT_EQ(reused.levels.size(), 3u);
    expectSameBinding(reused, bindDataflow(three.dataflow, layer, pes));

    bindDataflow(dataflows::cPartitioned(), layer, pes, reused);
    ASSERT_EQ(reused.levels.size(), 1u);
    expectSameBinding(reused,
                      bindDataflow(dataflows::cPartitioned(), layer, pes));

    EXPECT_THROW(bindDataflow(bad, layer, pes, reused), Error);

    bindDataflow(dataflows::kcPartitioned(), layer, pes, reused);
    ASSERT_EQ(reused.levels.size(), 2u);
    expectSameBinding(reused,
                      bindDataflow(dataflows::kcPartitioned(), layer, pes));
}

} // namespace
} // namespace maestro
