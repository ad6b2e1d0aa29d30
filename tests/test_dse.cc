/**
 * @file
 * Unit tests for the DSE tool: Pareto utilities, design-space
 * plumbing, budget enforcement, skipping consistency, and the
 * energy-from-counts rescaling.
 */

#include <gtest/gtest.h>

#include "src/common/error.hh"
#include "src/dataflows/catalog.hh"
#include "src/dse/explorer.hh"
#include "src/model/zoo.hh"

namespace maestro
{
namespace
{

TEST(Pareto, FrontierDropsDominatedPoints)
{
    // (maximize, minimize): (3,3) dominates (2,4); (1,1) survives as
    // the low-energy end.
    std::vector<dse::ObjectivePoint> pts = {
        {3.0, 3.0, 0}, {2.0, 4.0, 1}, {1.0, 1.0, 2}, {2.0, 2.0, 3},
    };
    const auto frontier = dse::paretoFrontier(pts);
    ASSERT_EQ(frontier.size(), 3u);
    EXPECT_EQ(frontier[0].index, 0u);
    EXPECT_EQ(frontier[1].index, 3u);
    EXPECT_EQ(frontier[2].index, 2u);
}

TEST(Pareto, HandlesTies)
{
    std::vector<dse::ObjectivePoint> pts = {
        {2.0, 2.0, 0}, {2.0, 1.0, 1},
    };
    const auto frontier = dse::paretoFrontier(pts);
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_EQ(frontier[0].index, 1u);
}

TEST(DesignSpace, Ranges)
{
    EXPECT_EQ(dse::linearRange(8, 32, 8),
              (std::vector<Count>{8, 16, 24, 32}));
    EXPECT_EQ(dse::pow2Range(64, 512),
              (std::vector<Count>{64, 128, 256, 512}));
    EXPECT_THROW(dse::linearRange(8, 4, 8), Error);
}

TEST(DesignSpace, PresetSizes)
{
    EXPECT_GT(dse::DesignSpace::figure13().totalPoints(), 1e6);
    EXPECT_GT(dse::DesignSpace::large().totalPoints(), 1e8);
    EXPECT_LT(dse::DesignSpace::small().totalPoints(), 1e5);
}

TEST(Explorer, RespectsBudgets)
{
    const Network net = zoo::vgg16();
    const Layer &layer = net.layer("CONV11");
    const dse::Explorer explorer(AcceleratorConfig::paperStudy());
    dse::DseOptions options;
    options.sample_stride = 13;

    const dse::DseResult res =
        explorer.explore(layer, dataflows::kcPartitioned(),
                         dse::DesignSpace::small(), options);
    EXPECT_GT(res.valid_points, 0.0);
    EXPECT_GE(res.explored_points,
              dse::DesignSpace::small().totalPoints() - 0.5);
    for (const auto &p : res.samples) {
        EXPECT_LE(p.area, options.area_budget_mm2 + 1e-9);
        EXPECT_LE(p.power, options.power_budget_mw + 1e-9);
        EXPECT_GE(static_cast<double>(p.l1_bytes), p.l1_required);
        EXPECT_GE(static_cast<double>(p.l2_bytes), p.l2_required);
    }
}

TEST(Explorer, TightBudgetShrinksValidSet)
{
    const Network net = zoo::vgg16();
    const Layer &layer = net.layer("CONV11");
    const dse::Explorer explorer(AcceleratorConfig::paperStudy());
    dse::DseOptions loose;
    dse::DseOptions tight;
    tight.area_budget_mm2 = 4.0;
    tight.power_budget_mw = 120.0;
    const auto a = explorer.explore(layer, dataflows::yrPartitioned(),
                                    dse::DesignSpace::small(), loose);
    const auto b = explorer.explore(layer, dataflows::yrPartitioned(),
                                    dse::DesignSpace::small(), tight);
    EXPECT_LT(b.valid_points, a.valid_points);
    EXPECT_LE(b.best_throughput.throughput,
              a.best_throughput.throughput + 1e-9);
}

TEST(Explorer, BestsAreConsistent)
{
    const Network net = zoo::vgg16();
    const Layer &layer = net.layer("CONV11");
    const dse::Explorer explorer(AcceleratorConfig::paperStudy());
    const auto res =
        explorer.explore(layer, dataflows::kcPartitioned(),
                         dse::DesignSpace::small(), dse::DseOptions());
    ASSERT_TRUE(res.best_throughput.valid);
    ASSERT_TRUE(res.best_energy.valid);
    ASSERT_TRUE(res.best_edp.valid);
    EXPECT_GE(res.best_throughput.throughput,
              res.best_energy.throughput - 1e-9);
    EXPECT_LE(res.best_energy.energy,
              res.best_throughput.energy + 1e-9);
    EXPECT_LE(res.best_edp.edp, res.best_throughput.edp + 1e-9);
    EXPECT_LE(res.best_edp.edp, res.best_energy.edp + 1e-9);
}

TEST(Explorer, ParetoPointsAreMutuallyNonDominating)
{
    const Network net = zoo::vgg16();
    const Layer &layer = net.layer("CONV2");
    const dse::Explorer explorer(AcceleratorConfig::paperStudy());
    dse::DseOptions options;
    options.sample_stride = 7;
    const auto res =
        explorer.explore(layer, dataflows::yrPartitioned(),
                         dse::DesignSpace::small(), options);
    for (std::size_t i = 0; i < res.pareto.size(); ++i) {
        for (std::size_t j = 0; j < res.pareto.size(); ++j) {
            if (i == j)
                continue;
            const auto &a = res.pareto[i];
            const auto &b = res.pareto[j];
            const bool dominates = a.throughput >= b.throughput &&
                                   a.energy <= b.energy &&
                                   (a.throughput > b.throughput ||
                                    a.energy < b.energy);
            EXPECT_FALSE(dominates) << i << " dominates " << j;
        }
    }
}

TEST(Explorer, EnergyFromCountsMatchesAnalyzer)
{
    // Recomputing at the analyzer's own configuration must reproduce
    // the analyzer's total energy.
    const Network net = zoo::vgg16();
    const Layer &layer = net.layer("CONV11");
    AcceleratorConfig cfg = AcceleratorConfig::paperStudy();
    const Analyzer analyzer(cfg);
    const LayerAnalysis la =
        analyzer.analyzeLayer(layer, dataflows::kcPartitioned());
    const double recomputed = dse::energyFromSums(
        la.cost.accessSums(), cfg.l1_bytes, cfg.l2_bytes,
        cfg.precision_bytes, cfg.noc.avgLatency(), EnergyModel());
    EXPECT_NEAR(recomputed, la.energy(), 1e-6 * la.energy());
}

TEST(Explorer, BiggerL2CutsRecomputedDramEnergy)
{
    const Network net = zoo::vgg16();
    const Layer &layer = net.layer("CONV11");
    AcceleratorConfig cfg = AcceleratorConfig::paperStudy();
    cfg.l2_bytes = 16 * 1024; // nothing resident at analysis time
    const Analyzer analyzer(cfg);
    const LayerAnalysis la =
        analyzer.analyzeLayer(layer, dataflows::kcPartitioned());
    const double small = dse::energyFromSums(
        la.cost.accessSums(), 512, 16 * 1024, 1, 1.0, EnergyModel());
    const double big = dse::energyFromSums(
        la.cost.accessSums(), 512, 1 << 20, 1, 1.0, EnergyModel());
    // The 1 MiB L2 holds CONV11's input: its refetches leave DRAM.
    EXPECT_LT(big, small);
}

TEST(Explorer, ExactCacheDistinguishesCloseBandwidths)
{
    // Regression: the exact sweep's evaluation cache used to key on
    // static_cast<Count>(bw * 1024.0), aliasing bandwidths closer than
    // 2^-10 elements/cycle — the second one silently reused the first
    // one's analysis. The key is now the double's bit pattern.
    const Network net = zoo::vgg16();
    const Layer &layer = net.layer("CONV2");
    const dse::Explorer explorer(AcceleratorConfig::paperStudy());
    dse::DesignSpace space;
    space.pe_counts = {256};
    space.l1_sizes = {4096};
    space.l2_sizes = {1 << 20};
    const double bw = 1.0;
    const double bw_close = 1.0 + 0x1p-11; // same key under the old cast
    space.noc_bandwidths = {bw, bw_close};
    dse::DseOptions options;
    options.exact = true;
    options.sample_stride = 1;
    options.area_budget_mm2 = 100.0;
    options.power_budget_mw = 5000.0;
    const dse::DseResult res =
        explorer.explore(layer, dataflows::kcPartitioned(), space,
                         options);
    ASSERT_EQ(res.samples.size(), 2u);
    EXPECT_EQ(res.evaluated_pairs, 2.0);
    // At ~1 element/cycle the layer is NoC-bound, so the two
    // bandwidths must yield genuinely different runtimes.
    EXPECT_NE(res.samples[0].runtime, res.samples[1].runtime);
    EXPECT_NE(res.samples[0].noc_bandwidth,
              res.samples[1].noc_bandwidth);
}

TEST(Explorer, DesignAtTheBudgetIsScreenedIn)
{
    // A design whose area equals the budget fits it. At 104 PEs and a
    // 15,936 B L1, the cheapest design (16 KiB L2, BW 1) sets such a
    // budget, and both sweeps must evaluate every Fig. 13 design whose
    // area() is within it, that one included.
    const Network net = zoo::vgg16();
    const AcceleratorConfig base = AcceleratorConfig::paperStudy();
    const AreaPowerModel model;
    const dse::DesignSpace space = dse::DesignSpace::figure13();
    const auto withDesign = [&](Count pes, Count l1, Count l2, double bw) {
        AcceleratorConfig cfg = base;
        cfg.num_pes = pes;
        cfg.l1_bytes = l1;
        cfg.l2_bytes = l2;
        cfg.noc = NocModel(bw, base.noc.avgLatency());
        return cfg;
    };
    dse::DseOptions options;
    options.area_budget_mm2 = model.area(withDesign(104, 15936, 16384, 1.0));
    options.power_budget_mw = 1e9;

    double fits = 0.0;
    for (const Count pes : space.pe_counts) {
        for (const Count l1 : space.l1_sizes) {
            for (const Count l2 : space.l2_sizes) {
                // Area grows with bandwidth, so the fits are a prefix.
                for (const double bw : space.noc_bandwidths) {
                    if (model.area(withDesign(pes, l1, l2, bw)) >
                        options.area_budget_mm2)
                        break;
                    fits += 1.0;
                }
            }
        }
    }

    const dse::Explorer explorer(base);
    double valid = -1.0;
    for (const bool exact : {false, true}) {
        options.exact = exact;
        const dse::DseResult res = explorer.explore(
            net.layer("CONV2"), dataflows::kcPartitioned(), space, options);
        EXPECT_EQ(res.evaluated_points, fits) << "exact " << exact;
        if (valid >= 0.0) {
            EXPECT_EQ(res.valid_points, valid);
        }
        valid = res.valid_points;
    }
}

TEST(Explorer, EmptySpaceRejected)
{
    const Network net = zoo::vgg16();
    const dse::Explorer explorer(AcceleratorConfig::paperStudy());
    dse::DesignSpace empty;
    EXPECT_THROW(explorer.explore(net.layer("CONV11"),
                                  dataflows::kcPartitioned(), empty),
                 Error);
}

} // namespace
} // namespace maestro
