/**
 * @file
 * Unit tests for the reference cycle-level simulator: MAC
 * conservation, utilization, traffic bounds, and cross-validation
 * against the analytical engines on small layers (the test-suite
 * version of the Fig. 9 experiment).
 */

#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <iterator>

#include "src/common/error.hh"
#include "src/common/hash.hh"
#include "src/core/analyzer.hh"
#include "src/dataflows/catalog.hh"
#include "src/sim/crossval.hh"
#include "src/sim/reference_sim.hh"
#include "src/sim/step_model.hh"
#include "tests/sim_cases.hh"

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

AcceleratorConfig
smallConfig()
{
    AcceleratorConfig cfg = AcceleratorConfig::paperStudy();
    cfg.num_pes = 32;
    cfg.noc = NocModel(8.0, 1.0);
    cfg.offchip = NocModel(4.0, 4.0);
    return cfg;
}

TEST(Sim, MacsConservedExactly)
{
    const Layer layer = conv(8, 8, 12, 3, 1, 1);
    const AcceleratorConfig cfg = smallConfig();
    for (const Dataflow &df : dataflows::table3()) {
        const SimResult sim = simulateLayer(layer, df, cfg);
        EXPECT_NEAR(sim.macs, layer.totalMacs(),
                    0.02 * layer.totalMacs())
            << df.name();
    }
}

TEST(Sim, MacsConservedWithStride)
{
    const Layer layer = conv(16, 3, 33, 5, 2, 0);
    const AcceleratorConfig cfg = smallConfig();
    for (const char *name : {"X-P", "KC-P", "YR-P"}) {
        const SimResult sim =
            simulateLayer(layer, dataflows::byName(name), cfg);
        EXPECT_NEAR(sim.macs, layer.totalMacs(),
                    0.05 * layer.totalMacs())
            << name;
    }
}

TEST(Sim, CyclesAtLeastComputeOverActive)
{
    const Layer layer = conv(8, 8, 12, 3, 1, 1);
    const AcceleratorConfig cfg = smallConfig();
    for (const Dataflow &df : dataflows::table3()) {
        const SimResult sim = simulateLayer(layer, df, cfg);
        EXPECT_GE(sim.cycles * sim.avg_active_pes, sim.macs * 0.95)
            << df.name();
        EXPECT_LE(sim.avg_active_pes,
                  static_cast<double>(cfg.num_pes) + 1e-9)
            << df.name();
    }
}

TEST(Sim, WeightSupplyAtLeastTensorOnce)
{
    const Layer layer = conv(8, 8, 12, 3, 1, 1);
    const AcceleratorConfig cfg = smallConfig();
    for (const Dataflow &df : dataflows::table3()) {
        const SimResult sim = simulateLayer(layer, df, cfg);
        EXPECT_GE(sim.l2_supply[TensorKind::Weight],
                  static_cast<double>(
                      layer.tensorVolume(TensorKind::Weight)) *
                      0.99)
            << df.name();
    }
}

TEST(Sim, GuardRejectsHugeNestsOnExactPath)
{
    const Layer layer = conv(512, 512, 224, 3, 1, 1);
    SimOptions options;
    options.exact = true;
    options.max_steps = 1000;
    EXPECT_THROW(simulateLayer(layer, dataflows::cPartitioned(),
                               smallConfig(), options),
                 Error);
}

TEST(Sim, ExactGuardBoundaryIsInclusive)
{
    // The guard must reject strictly-greater step counts and accept
    // a budget exactly equal to the nest size.
    const Layer layer = conv(8, 8, 12, 3, 1, 1);
    const Dataflow df = dataflows::cPartitioned();
    SimOptions probe;
    const SimResult sized = simulateLayer(layer, df, smallConfig(), probe);

    SimOptions options;
    options.exact = true;
    options.max_steps = sized.steps;
    EXPECT_NO_THROW(simulateLayer(layer, df, smallConfig(), options));
    options.max_steps = sized.steps - 1.0;
    EXPECT_THROW(simulateLayer(layer, df, smallConfig(), options),
                 Error);
}

TEST(Sim, FastGuardBoundsStepClassesNotSteps)
{
    // The periodic path accepts a nest whose raw step count is far
    // beyond the budget (that's its purpose) but applies the same
    // guard semantics to its own unit of work, the step classes.
    const Layer layer = conv(512, 512, 224, 3, 1, 1);
    const Dataflow df = dataflows::cPartitioned();
    SimOptions options;
    options.max_steps = 100000;
    SimResult fast;
    ASSERT_NO_THROW(
        fast = simulateLayer(layer, df, smallConfig(), options));
    EXPECT_GT(fast.steps, options.max_steps);
    EXPECT_LE(fast.step_classes, options.max_steps);

    options.max_steps = fast.step_classes;
    EXPECT_NO_THROW(simulateLayer(layer, df, smallConfig(), options));
    options.max_steps = fast.step_classes - 1.0;
    EXPECT_THROW(simulateLayer(layer, df, smallConfig(), options),
                 Error);
}

/**
 * Frozen simulator bits: every SimResult field ("%a") of seed 7's
 * first 40 crossval triples and of the three-level case, captured
 * before the step engine resolved each step's chunks in one pass.
 * SimEquivalence runs both paths through one StepEngine, so a change
 * that moves a bit moves both paths alike and passes it, and every
 * crossval test is a tolerance; only frozen values catch it.
 */
const char *const kSeed7Rows[] = {
    "0x1.dddp+12 0x1.6p+8 0x1.6p+6 0x1.776p+16 0x1.ap+3 0x1.5p+9"
    " 0x1.6c8p+14 0x0p+0 0x1.1d3p+12 0x1.5p+9 0x1.88p+11 0x0p+0"
    " 0x1.358p+11 0x1.3706p+12 0x1.cep+12",
    "0x1.f068p+15 0x1.b8p+12 0x1.ep+7 0x1.167p+21 0x1.8p+5 0x1.44p+15"
    " 0x1.af4p+20 0x0p+0 0x1.b7fp+12 0x1.44p+15 0x1.bp+13 0x0p+0"
    " 0x1.e7p+11 0x1.148af8p+16 0x1.b8p+14",
    "0x1.2cap+9 0x1.8p+3 0x1.8p+3 0x1.26p+9 0x1p+0 0x1.26p+9 0x1.26p+9"
    " 0x0p+0 0x1.8p+1 0x1.26p+9 0x1.26p+7 0x0p+0 0x1.718p+8 0x1.44cp+7"
    " 0x1.26p+9",
    "0x1.d90cd999999bp+18 0x1.bp+10 0x1.bp+7 0x1.be83333333331p+20"
    " 0x1.8p+4 0x1.be83333333331p+20 0x1.f02p+20 0x0p+0 0x1.af8p+9"
    " 0x1.8ce6666666667p+15 0x1.bp+12 0x0p+0 0x1.c9a6666666667p+14"
    " 0x1.d9f45199999bp+18 0x1.2fcp+16",
    "0x1.e3c8p+13 0x1.5p+13 0x1.8p+4 0x1.26p+17 0x1.cp+3 0x1.8p+9"
    " 0x1.26p+17 0x0p+0 0x1.25f9p+17 0x1.8p+9 0x1.88p+11 0x0p+0 0x1.ap+9"
    " 0x1.e35a4p+14 0x1.5p+13",
    "0x1.1c9999999999ap+11 0x1.5p+8 0x1.4p+5 0x1.8ce6666666665p+16"
    " 0x1.5p+5 0x1.0333333333332p+9 0x1.8p+13 0x0p+0 0x1.252p+13"
    " 0x1.0333333333332p+9 0x1.26p+12 0x0p+0 0x1.7766666666666p+8"
    " 0x1.0134cccccccccp+12 0x1.5p+10",
    "0x1.d30cccccccccdp+11 0x1p+10 0x1p+5 0x1.5999999999999p+15 0x1p+3"
    " 0x1.599999999999ap+9 0x1.9p+13 0x0p+0 0x1.ff8p+12"
    " 0x1.5999999999999p+9 0x1p+10 0x0p+0 0x1.1666666666666p+10"
    " 0x1.a936666666666p+12 0x1p+11",
    "0x1.2eb2p+12 0x1.8p+8 0x1p+2 0x1.7ap+18 0x1.cp+7 0x1.bp+11"
    " 0x1.cbp+15 0x0p+0 0x1.49p+13 0x1.bp+11 0x1.cp+9 0x0p+0 0x1.d8p+11"
    " 0x1.52p+12 0x1.ep+10",
    "0x1.bb0ccccccccd6p+10 0x1.2p+9 0x1.8p+7 0x1.59999999999ap+12 0x1p+4"
    " 0x1.59999999999ap+8 0x1.2p+13 0x0p+0 0x1.1ep+11"
    " 0x1.3333333333333p+3 0x1.2p+11 0x0p+0 0x1.209999999999ap+9"
    " 0x1.130666666666bp+11 0x1.2p+9",
    "0x1.1bb8p+13 0x1.f8p+11 0x1.bp+6 0x1.f8p+13 0x1p+2 0x1.8p+6"
    " 0x1.f8p+13 0x0p+0 0x1.f7ep+11 0x1.8p+6 0x1.5p+9 0x0p+0 0x1.2cp+9"
    " 0x1.0fbfcp+14 0x1.f8p+11",
    "0x1.168p+9 0x1p+5 0x1p+5 0x1.5p+13 0x1.cp+6 0x1.8p+6 0x1p+12 0x0p+0"
    " 0x1.88p+9 0x1.8p+5 0x1p+10 0x0p+0 0x1.ecp+7 0x1.4a8p+9 0x1p+5",
    "0x1.e753333333334p+11 0x1.8p+8 0x1p+3 0x1.cccccccccccccp+12 0x1p+5"
    " 0x1.cccccccccccccp+7 0x1.8p+13 0x0p+0 0x1.ep+8 0x1.cccccccccccccp+6"
    " 0x1.8p+12 0x0p+0 0x1.a733333333333p+9 0x1.f9f3333333334p+11"
    " 0x1.8p+8",
    "0x1.b57e66666665fp+13 0x1.0ep+10 0x1.2p+7 0x1.1160000000006p+20"
    " 0x1p+7 0x1.bp+13 0x1.78a666666665fp+17 0x0p+0 0x1.0dcp+12 0x1.bp+13"
    " 0x1.9333333333333p+13 0x0p+0 0x1.e51999999999ap+10"
    " 0x1.df8c66666665fp+13 0x1.95p+11",
    "0x1.704p+12 0x1.ep+8 0x1.4p+5 0x1.518p+17 0x1.ep+4 0x1.bp+10"
    " 0x1.bp+13 0x0p+0 0x1.2b6p+13 0x1.bp+10 0x1.bp+12 0x0p+0 0x1.1a8p+9"
    " 0x1.0048p+12 0x1.68p+12",
    "0x1.b90588p+17 0x1.2p+12 0x1.ep+7 0x1.b9p+21 0x1p+4 0x1.b9p+17"
    " 0x1.f8p+18 0x0p+0 0x1.7fcp+14 0x1.26p+12 0x1.2p+11 0x0p+0"
    " 0x1.ed8p+12 0x1.a63cp+15 0x1.b9p+17",
    "0x1.8c7237dac37dbp+15 0x1.08p+14 0x1.4p+6 0x1.6f89999999997p+20"
    " 0x1.6p+3 0x1.1ac37dac37dacp+12 0x1.41cp+19 0x0p+0 0x1.6af8p+17"
    " 0x1.84ccccccccccdp+11 0x1.2p+12 0x0p+0 0x1.e39999999999ap+11"
    " 0x1.d757c37dac37ep+15 0x1.8cp+15",
    "0x1.82086p+16 0x1.f8p+9 0x1.5p+5 0x1.51a4p+19 0x1.cp+2 0x1.b9p+12"
    " 0x1.962p+16 0x0p+0 0x1.b89p+13 0x1.b9p+12 0x1.2cp+11 0x0p+0"
    " 0x1.ba8p+10 0x1.13ddp+14 0x1.81ep+16",
    "0x1.4b9p+14 0x1.ep+10 0x1.8p+5 0x1.2cp+17 0x1.4p+4 0x1.8p+8"
    " 0x1.2cp+16 0x0p+0 0x1.2bd8p+16 0x1.8p+8 0x1.2cp+14 0x0p+0"
    " 0x1.64p+10 0x1.4aaap+15 0x1.ep+12",
    "0x1.ae4p+10 0x1.8p+9 0x1.8p+5 0x1.4p+12 0x1.aaaaaaaaaaaabp+2"
    " 0x1.8p+9 0x1.4p+12 0x0p+0 0x1.3p+7 0x1p+7 0x1.18p+12 0x0p+0"
    " 0x1.2ap+9 0x1.babp+10 0x1.8p+9",
    "0x1.9508ap+14 0x1.44p+12 0x1.2p+5 0x1.2fcp+19 0x1.8p+3 0x1.68p+9"
    " 0x1.44p+17 0x0p+0 0x1.e5e8p+16 0x1.68p+9 0x1.2p+11 0x0p+0"
    " 0x1.5bap+14 0x1.3013p+14 0x1.95p+14",
    "0x1.0404p+14 0x1p+13 0x1p+7 0x1p+18 0x1p+5 0x1p+13 0x1p+18 0x0p+0"
    " 0x1.ffcp+15 0x1p+8 0x1p+12 0x0p+0 0x1.11p+12 0x1.43f8p+14 0x1p+13",
    "0x1.7bccp+14 0x1.8p+9 0x1p+3 0x1.8ce6666666668p+20 0x1.cp+6"
    " 0x1.f8p+13 0x1.44p+17 0x0p+0 0x1.49p+12 0x1.f8p+12"
    " 0x1.60ccccccccccdp+11 0x0p+0 0x1.fc33333333333p+10 0x1.874p+14"
    " 0x1.c8p+13",
    "0x1.9468p+14 0x1.26p+14 0x1.bp+6 0x1.b9p+15 0x1.8p+1 0x1.2p+6"
    " 0x1.b9p+15 0x0p+0 0x1.25fcp+14 0x1.2p+6 0x1.26p+11 0x0p+0"
    " 0x1.4bep+12 0x1.6f8fcp+15 0x1.26p+14",
    "0x1.286p+9 0x1.88p+8 0x1.2p+6 0x1.26p+12 0x1p+4 0x1p+5 0x1.26p+10"
    " 0x0p+0 0x1.87p+10 0x1p+5 0x1.26p+9 0x0p+0 0x1.118p+8 0x1.1a6p+10"
    " 0x1.88p+8",
    "0x1.52dbp+16 0x1p+13 0x1.9p+7 0x1.bp+20 0x1.8p+4 0x1.bp+10"
    " 0x1.32p+19 0x0p+0 0x1.fffp+12 0x1.bp+10 0x1.8p+14 0x0p+0"
    " 0x1.0d8p+11 0x1.76d6ep+16 0x1.8p+14",
    "0x1.21b3p+16 0x1.a4p+12 0x1.68p+7 0x1.068p+18 0x1p+3 0x1.ep+9"
    " 0x1.068p+18 0x0p+0 0x1.a3fp+12 0x1.ep+9 0x1.88p+11 0x0p+0 0x1.52p+9"
    " 0x1.427ecp+16 0x1.3bp+14",
    "0x1.e08p+11 0x1.8p+9 0x1.2p+7 0x1.8p+13 0x1p+4 0x1.8p+3 0x1.8p+13"
    " 0x0p+0 0x1.7f8p+13 0x1.8p+3 0x1.8p+11 0x0p+0 0x1.c0cp+9 0x1.dfep+12"
    " 0x1.8p+9",
    "0x1.4b76666666679p+12 0x1.88p+8 0x1.26p+7 0x1.29accccccccbcp+17"
    " 0x1.8p+5 0x1.bp+11 0x1.fe4ccccccccc3p+14 0x0p+0 0x1.87p+9 0x1.bp+11"
    " 0x1.089999999999ap+10 0x0p+0 0x1.4b26666666666p+11"
    " 0x1.822266666667dp+12 0x1.eap+10",
    "0x1.b8d0ccccccccdp+17 0x1p+14 0x1p+4 0x1.d666666666665p+20 0x1p+2"
    " 0x1.d666666666666p+16 0x1.52p+19 0x0p+0 0x1.fff8p+15"
    " 0x1.d666666666666p+16 0x1.88p+13 0x0p+0 0x1.05b3333333333p+16"
    " 0x1.eccbccccccccdp+17 0x1p+17",
    "0x1.c312p+15 0x1.68p+13 0x1.9p+7 0x1.2fcp+18 0x1.8p+1 0x1.44p+10"
    " 0x1.d88p+16 0x0p+0 0x1.67f8p+13 0x1.44p+10 0x1.68p+9 0x0p+0"
    " 0x1.a7p+12 0x1.36a1cp+15 0x1.c2p+15",
    "0x1.2608p+13 0x1.26p+12 0x1.44p+8 0x1.26p+16 0x1p+4 0x1.26p+16"
    " 0x1.26p+16 0x0p+0 0x1.87cp+10 0x1.8p+8 0x1.26p+15 0x0p+0"
    " 0x1.354p+12 0x1.587fcp+13 0x1.26p+12",
    "0x1.1a28ccccccccdp+16 0x1p+13 0x1p+9 0x1.60cccccccccbep+19 0x1.8p+1"
    " 0x1.60ccccccccccdp+11 0x1.cep+17 0x0p+0 0x1.fffp+12"
    " 0x1.60ccccccccccdp+11 0x1.8p+9 0x0p+0 0x1.7033333333333p+10"
    " 0x1.f1bd59999999ap+15 0x1p+16",
    "0x1.e098p+10 0x1.ep+8 0x1.8p+4 0x1.2cp+15 0x1.4p+3 0x1.8p+7"
    " 0x1.2cp+14 0x0p+0 0x1.2b6p+14 0x1.8p+7 0x1.9p+11 0x0p+0 0x1.96p+10"
    " 0x1.0e78p+11 0x1.ep+10",
    "0x1.ffp+12 0x1.cp+10 0x1.8p+6 0x1.88p+16 0x1.cp+3 0x1.cp+11"
    " 0x1.f8p+14 0x0p+0 0x1.bfcp+12 0x1.cp+11 0x1.88p+13 0x0p+0"
    " 0x1.ffp+12 0x1.33eep+12 0x1.cp+10",
    "0x1.4523cp+18 0x1.d4p+12 0x1.a4p+8 0x1.b6cp+22 0x1p+6 0x1.68p+13"
    " 0x1.3bp+20 0x0p+0 0x1.d3fp+13 0x1.68p+13 0x1.88p+14 0x0p+0"
    " 0x1.93p+12 0x1.5017ap+18 0x1.b6cp+16",
    "0x1.e56p+12 0x1.cp+9 0x1.cp+5 0x1.cb6p+20 0x1.18p+6 0x1.2cp+12"
    " 0x1.e6p+15 0x0p+0 0x1.879p+15 0x1.2cp+12 0x1.26p+10 0x0p+0"
    " 0x1.e56p+12 0x1.c4a4p+12 0x1.a4p+12",
    "0x1.f0b2p+17 0x1.2p+13 0x1.8p+3 0x1.356p+22 0x1.2555555555555p+5"
    " 0x1.0ep+17 0x1.aafp+20 0x0p+0 0x1.478p+12 0x1.68p+15 0x1.2p+15"
    " 0x0p+0 0x1.58ap+15 0x1.f2868p+17 0x1.2p+15",
    "0x1.2be8666666666p+15 0x1.8p+12 0x1.8p+4 0x1.9p+18"
    " 0x1.0aaaaaaaaaaabp+6 0x1.f333333333333p+12 0x1.9p+18 0x0p+0"
    " 0x1.8ep+14 0x1p+10 0x1.9p+12 0x0p+0 0x1.02p+12"
    " 0x1.3e52666666666p+15 0x1.8p+12",
    "0x1.048p+11 0x1.cp+8 0x1.8p+5 0x1.88p+13 0x1.cp+2 0x1p+8 0x1.88p+12"
    " 0x0p+0 0x1.872p+12 0x1p+8 0x1.88p+12 0x0p+0 0x1.b08p+9 0x1.ff7p+11"
    " 0x1.cp+10",
    "0x1.53f28p+17 0x1.26p+11 0x1.88p+7 0x1.4acp+19 0x1p+5 0x1.4acp+19"
    " 0x1.4acp+19 0x0p+0 0x1.25cp+10 0x1.bp+13 0x1.88p+11 0x0p+0"
    " 0x1.1b6p+13 0x1.58d07p+17 0x1.6f8p+13",
};

const char *const kThreeLevelRow =
    "0x1.4924p+14 0x1p+11 0x1.ep+8 0x1.2p+20 0x1p+6 0x1.2p+12 0x1.2p+17"
    " 0x0p+0 0x1.ffcp+14 0x1.2p+12 0x1p+12 0x0p+0 0x1.08p+12 0x1.a8f4p+14"
    " 0x1.2p+14";

TEST(Sim, GoldenResultsMatchFrozenBits)
{
    for (std::uint64_t i = 0; i < std::size(kSeed7Rows); ++i) {
        EXPECT_EQ(simtest::tripleBits(7, i, false), kSeed7Rows[i])
            << "seed 7 triple " << i;
    }
    // The exact walker lands on the same bits.
    for (std::uint64_t i = 0; i < 8; ++i) {
        EXPECT_EQ(simtest::tripleBits(7, i, true), kSeed7Rows[i])
            << "seed 7 triple " << i << ", exact path";
    }
    const simtest::SimCase three = simtest::threeLevelCase();
    EXPECT_EQ(simtest::resultBits(simulateLayer(
                  three.layer, three.dataflow, three.config)),
              kThreeLevelRow);

    // FNV-1a over the rows (each newline-terminated) of the first
    // 1,000 triples per seed, the holdout seed included.
    const struct
    {
        std::uint64_t seed;
        const char *digest;
    } digests[] = {{7, "62d718d2cbfa145a"}, {1009, "b24b03ffd1828c15"}};
    for (const auto &[seed, digest] : digests) {
        std::uint64_t h = kFnvOffsetBasis;
        for (std::uint64_t i = 0; i < 1000; ++i)
            h = hashBytes(simtest::tripleBits(seed, i, false) + "\n", h);
        EXPECT_EQ(hashHex(h), digest) << "seed " << seed;
    }
}

TEST(SimDeathTest, RectPushPastFourDimsPanics)
{
    // A rect holds its intervals in place; a fifth storage dim must
    // abort, never write past the array.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::Rect rect;
    for (Count d = 0; d < 4; ++d)
        rect.push({d, 1});
    EXPECT_EQ(rect.rank, 4u);
    EXPECT_DEATH(rect.push({4, 1}), "more than four storage dims");
}

/**
 * Satellite properties over a seeded randomized sweep: exact MAC
 * conservation, DRAM fill lower-bounded by the tensor volume it must
 * at least deliver, and cycles lower-bounded by every modeled
 * resource's busy time.
 */
TEST(Sim, RandomizedInvariants)
{
    int checked = 0;
    for (std::uint64_t i = 0; i < 120 && checked < 48; ++i) {
        const crossval::TripleSpec spec =
            crossval::sampleTriple(1234, i);
        const Layer layer = spec.layer();
        SimResult sim;
        try {
            sim = simulateLayer(layer,
                                dataflows::byName(spec.dataflow),
                                spec.config());
        } catch (const Error &) {
            continue; // unbindable sample
        }
        ++checked;
        const std::string what = spec.describe();

        // MACs match the algorithmic count exactly (the schedule
        // covers the whole output space, once).
        const double alg =
            static_cast<double>(layer.totalMacs());
        EXPECT_NEAR(sim.macs, alg, 1e-6 * alg) << what;

        // DRAM must deliver every element the schedule consumes at
        // least once: all weights always; all inputs at stride 1
        // (a strided schedule legitimately skips input elements).
        const double w_volume =
            static_cast<double>(
                layer.tensorVolume(TensorKind::Weight)) *
            layer.weightDensityVal();
        EXPECT_GE(sim.dram_fill[TensorKind::Weight],
                  w_volume * (1.0 - 1e-9))
            << what;
        if (spec.stride == 1) {
            const double i_volume =
                static_cast<double>(
                    layer.tensorVolume(TensorKind::Input)) *
                layer.inputDensityVal();
            EXPECT_GE(sim.dram_fill[TensorKind::Input],
                      i_volume * (1.0 - 1e-9))
                << what;
        }

        // Runtime is bounded below by each resource's busy time.
        // Ingress and egress are separate overlapped NoC channels, so
        // the combined noc_busy may reach twice the runtime but each
        // direction alone never exceeds it.
        EXPECT_GE(sim.cycles, sim.compute_cycles * (1.0 - 1e-9))
            << what;
        EXPECT_GE(sim.cycles, 0.5 * sim.noc_busy * (1.0 - 1e-9))
            << what;
        EXPECT_GE(sim.cycles, sim.dram_busy * (1.0 - 1e-9)) << what;
    }
    EXPECT_GE(checked, 32);
}

/**
 * Cross-validation property: the analytical runtime stays within 15%
 * of the simulator across a sweep of layers and dataflows (the paper
 * reports 3.9% average against RTL; individual layers vary more).
 */
struct ValidationCase
{
    const char *dataflow;
    Count k, c, hw, rs, stride, pad;
    Count pes = 32;
};

class SimCrossValidation
    : public ::testing::TestWithParam<ValidationCase>
{
};

TEST_P(SimCrossValidation, AnalyticalMatchesSimulator)
{
    const ValidationCase &vc = GetParam();
    const Layer layer =
        conv(vc.k, vc.c, vc.hw, vc.rs, vc.stride, vc.pad);
    const Dataflow df = dataflows::byName(vc.dataflow);
    AcceleratorConfig cfg = smallConfig();
    cfg.num_pes = vc.pes;

    const LayerAnalysis la = Analyzer(cfg).analyzeLayer(layer, df);
    const SimResult sim = simulateLayer(layer, df, cfg);
    const double err =
        std::abs(la.runtime - sim.cycles) / sim.cycles;
    EXPECT_LT(err, 0.15)
        << vc.dataflow << " k" << vc.k << " c" << vc.c << " hw"
        << vc.hw << ": analytical " << la.runtime << " vs sim "
        << sim.cycles;
}

INSTANTIATE_TEST_SUITE_P(
    LayerSweep, SimCrossValidation,
    ::testing::Values(
        ValidationCase{"C-P", 8, 8, 12, 3, 1, 1},
        ValidationCase{"C-P", 16, 32, 14, 3, 1, 1},
        ValidationCase{"X-P", 8, 8, 12, 3, 1, 1},
        ValidationCase{"X-P", 16, 3, 32, 3, 1, 1},
        ValidationCase{"X-P", 8, 8, 21, 5, 2, 0},
        ValidationCase{"YX-P", 8, 8, 24, 3, 1, 1},
        ValidationCase{"YX-P", 16, 16, 32, 3, 1, 1},
        ValidationCase{"YR-P", 8, 8, 16, 3, 1, 1},
        ValidationCase{"YR-P", 16, 16, 28, 3, 1, 1},
        ValidationCase{"YR-P", 8, 3, 33, 5, 2, 0},
        ValidationCase{"KC-P", 64, 64, 14, 3, 1, 1, 64},
        ValidationCase{"KC-P", 32, 16, 28, 3, 1, 1, 64},
        ValidationCase{"KC-P", 16, 3, 32, 3, 1, 1, 64}),
    [](const ::testing::TestParamInfo<ValidationCase> &info) {
        const ValidationCase &vc = info.param;
        std::string name = vc.dataflow;
        for (char &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name + "_k" + std::to_string(vc.k) + "_c" +
               std::to_string(vc.c) + "_hw" + std::to_string(vc.hw) +
               "_rs" + std::to_string(vc.rs) + "_s" +
               std::to_string(vc.stride);
    });

} // namespace
} // namespace maestro
