/**
 * @file
 * Randomized equivalence suite pinning the periodic fast simulator to
 * the exact walker, byte for byte (the `--sim-exact` discipline,
 * mirroring test_dse_equivalence.cc).
 *
 * Two layers of defense: (1) every SimResult field of the fast path
 * must compare EQUAL (not near) to the exact walk; (2) the exact walk
 * itself classifies each visited position through the same partition
 * tree and throws if any class member's contribution deviates from
 * its representative — so a pass here proves the step classification,
 * not just the final sums.
 */

#include <gtest/gtest.h>

#include "src/common/error.hh"
#include "src/core/analyzer.hh"
#include "src/dataflows/catalog.hh"
#include "src/sim/crossval.hh"
#include "src/sim/reference_sim.hh"
#include "tests/sim_cases.hh"

namespace maestro
{
namespace
{

/** Exact walks get slow beyond this; the fast path reports steps
 *  before we commit to walking them. */
constexpr double kMaxExactSteps = 60000.0;

void
expectIdentical(const SimResult &fast, const SimResult &exact,
                const std::string &what)
{
    EXPECT_EQ(fast.cycles, exact.cycles) << what;
    EXPECT_EQ(fast.steps, exact.steps) << what;
    EXPECT_EQ(fast.step_classes, exact.step_classes) << what;
    EXPECT_EQ(fast.macs, exact.macs) << what;
    EXPECT_EQ(fast.avg_active_pes, exact.avg_active_pes) << what;
    for (TensorKind t : kAllTensors) {
        EXPECT_EQ(fast.l2_supply[t], exact.l2_supply[t]) << what;
        EXPECT_EQ(fast.dram_fill[t], exact.dram_fill[t]) << what;
    }
    EXPECT_EQ(fast.output_commits, exact.output_commits) << what;
    EXPECT_EQ(fast.dram_busy, exact.dram_busy) << what;
    EXPECT_EQ(fast.noc_busy, exact.noc_busy) << what;
    EXPECT_EQ(fast.compute_cycles, exact.compute_cycles) << what;
}

/**
 * Runs one triple down both paths and asserts byte-identity. Returns
 * false when the triple is unbindable or too big to walk exactly.
 */
bool
checkTriple(const crossval::TripleSpec &spec)
{
    Layer layer = spec.layer();
    Dataflow df = dataflows::byName(spec.dataflow);
    AcceleratorConfig cfg = spec.config();

    SimResult fast;
    try {
        fast = simulateLayer(layer, df, cfg);
    } catch (const Error &) {
        return false; // unbindable combination; sampler roams wide
    }
    if (fast.steps > kMaxExactSteps)
        return false;

    SimOptions exact_opts;
    exact_opts.exact = true;
    const SimResult exact =
        simulateLayer(layer, df, cfg, exact_opts);
    expectIdentical(fast, exact, spec.describe());
    return true;
}

TEST(SimEquivalence, RandomizedTriples)
{
    // The crossval sampler covers ops, strides, pads, densities,
    // every catalog dataflow, and hardware shapes that force partial
    // folds and edge chunks.
    int checked = 0;
    for (std::uint64_t i = 0; i < 400 && checked < 60; ++i) {
        if (checkTriple(crossval::sampleTriple(20260809, i)))
            ++checked;
    }
    // The sampler must produce a healthy number of walkable triples,
    // or this suite silently stops testing anything.
    EXPECT_GE(checked, 40);
}

TEST(SimEquivalence, HandpickedEdgeCases)
{
    // Shapes chosen to exercise every boundary the periodic path
    // special-cases: clamped edge chunks, partial folds, stride
    // phases, padding diagonals, depthwise coupling, N > 1.
    std::vector<crossval::TripleSpec> specs;

    crossval::TripleSpec t;
    t.k = 8;
    t.c = 8;
    t.y = t.x = 13; // prime: edge chunks on every tiling
    t.r = t.s = 3;
    t.pad = 1;
    for (const char *df : {"C-P", "X-P", "YX-P", "YR-P", "KC-P"}) {
        t.dataflow = df;
        specs.push_back(t);
    }

    t.stride = 2; // stride phases + clamped right edge
    t.y = t.x = 17;
    specs.push_back(t);
    t.dataflow = "YX-P"; // stride-2 output-slide clamp (ROADMAP 6)
    specs.push_back(t);

    t = crossval::TripleSpec();
    t.op = OpType::DepthwiseConv;
    t.k = 1;
    t.c = 24;
    t.y = t.x = 14;
    t.r = t.s = 3;
    t.pad = 1;
    t.dataflow = "YR-P";
    specs.push_back(t);
    t.dataflow = "C-P";
    specs.push_back(t);

    t = crossval::TripleSpec();
    t.n = 2; // batch loop
    t.k = 4;
    t.c = 6;
    t.y = t.x = 9;
    t.r = t.s = 5;
    t.dataflow = "X-P";
    t.num_pes = 48; // partial folds
    specs.push_back(t);

    t = crossval::TripleSpec();
    t.k = 16;
    t.c = 3; // first-layer shape: C smaller than any tile
    t.y = t.x = 23;
    t.r = t.s = 7;
    t.stride = 2;
    t.pad = 3;
    t.dataflow = "YR-P";
    t.input_density = 0.5; // density scaling must commute
    t.weight_density = 0.9;
    specs.push_back(t);

    int checked = 0;
    for (const crossval::TripleSpec &spec : specs) {
        if (checkTriple(spec))
            ++checked;
    }
    EXPECT_GE(checked, static_cast<int>(specs.size()) - 2);
}

TEST(SimEquivalence, ThreeLevelDataflowMatchesWalker)
{
    // The catalog's dataflows have at most two levels. Here every one
    // of three levels folds, so the chunk resolver reads fold and
    // temporal positions below the first cluster level.
    const simtest::SimCase three = simtest::threeLevelCase();
    const SimResult fast =
        simulateLayer(three.layer, three.dataflow, three.config);
    SimOptions exact_opts;
    exact_opts.exact = true;
    const SimResult exact = simulateLayer(three.layer, three.dataflow,
                                          three.config, exact_opts);
    EXPECT_EQ(fast.steps, 2048.0);
    EXPECT_LT(fast.step_classes, fast.steps);
    expectIdentical(fast, exact, "three-level dataflow");
}

TEST(SimEquivalence, StridedYxPCoversAllOutputs)
{
    // Before the binding clamp, YX-P's 8-output slide skipped every
    // other output column at stride 2: the simulator faithfully
    // reported half the MACs while the analytical count stayed
    // algorithmic. With the clamp, both sides must agree exactly at
    // any stride (which also lets the crossval sampler roam strided
    // YX-P triples again).
    crossval::TripleSpec t;
    t.k = 8;
    t.c = 8;
    t.y = t.x = 17;
    t.r = t.s = 3;
    t.stride = 2;
    t.pad = 1;
    t.dataflow = "YX-P";
    const Layer layer = t.layer();
    const Dataflow df = dataflows::byName(t.dataflow);
    const AcceleratorConfig cfg = t.config();
    const SimResult sim = simulateLayer(layer, df, cfg);
    const LayerAnalysis la = Analyzer(cfg).analyzeLayer(layer, df);
    EXPECT_EQ(sim.macs, la.total_macs);
}

TEST(SimEquivalence, FastPathCollapsesSteadyState)
{
    // A steady-state-dominated layer: the walker sees hundreds of
    // thousands of steps, the periodic path a few hundred classes.
    crossval::TripleSpec t;
    t.k = 64;
    t.c = 64;
    t.y = t.x = 28;
    t.r = t.s = 3;
    t.pad = 1;
    t.dataflow = "KC-P";
    t.num_pes = 64;

    const SimResult fast =
        simulateLayer(t.layer(), dataflows::byName(t.dataflow),
                      t.config());
    EXPECT_GT(fast.steps, 100.0 * fast.step_classes)
        << "periodic path should collapse the steady state";
}

} // namespace
} // namespace maestro
