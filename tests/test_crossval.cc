/**
 * @file
 * Tests for the mass cross-validation harness: the CI-gate subset,
 * determinism across runs and thread counts, and gate diagnostics.
 */

#include <gtest/gtest.h>

#include "src/sim/crossval.hh"

#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "src/common/error.hh"
#include "src/core/analyzer.hh"
#include "src/dataflows/catalog.hh"
#include "src/sim/reference_sim.hh"

namespace maestro
{
namespace crossval
{
namespace
{

CrossvalOptions
fastOptions()
{
    CrossvalOptions options;
    options.seed = 7;
    options.triples = 96;
    options.threads = 4;
    return options;
}

TEST(Crossval, SamplerIsPureFunctionOfSeedAndIndex)
{
    for (std::uint64_t i : {0ULL, 1ULL, 17ULL, 4095ULL}) {
        const TripleSpec a = sampleTriple(42, i);
        const TripleSpec b = sampleTriple(42, i);
        EXPECT_EQ(a.describe(), b.describe());
    }
    // Different indices must not collapse to one spec.
    EXPECT_NE(sampleTriple(42, 1).describe(),
              sampleTriple(42, 2).describe());
    // Sampled triples must be layer-constructible.
    for (std::uint64_t i = 0; i < 64; ++i)
        sampleTriple(3, i).layer().validate();
}

TEST(Crossval, ReportIsIdenticalForAnyThreadCount)
{
    CrossvalOptions options = fastOptions();
    options.threads = 1;
    const CrossvalReport serial = runCrossval(options);
    options.threads = 4;
    const CrossvalReport parallel = runCrossval(options);

    EXPECT_EQ(crossvalJson(options, serial),
              crossvalJson(options, parallel));
    EXPECT_EQ(serial.evaluated, parallel.evaluated);
    EXPECT_EQ(serial.cycles.sum_abs_pct, parallel.cycles.sum_abs_pct);
    EXPECT_EQ(serial.dram_fill.max_abs_pct,
              parallel.dram_fill.max_abs_pct);
}

TEST(Crossval, GateSubsetPasses)
{
    // The same discipline CI enforces (on a smaller sample): the
    // analytical model must track the simulator within tolerance.
    const CrossvalOptions options = fastOptions();
    const CrossvalReport report = runCrossval(options);
    const GateResult gate = checkGate(report, options);

    std::string all;
    for (const std::string &f : gate.failures)
        all += f + "\n";
    EXPECT_TRUE(gate.ok) << all;
    EXPECT_GE(report.evaluated, report.requested * 2 / 3);
}

TEST(Crossval, GateFailureNamesTheOffendingTriple)
{
    const CrossvalOptions options = fastOptions();
    const CrossvalReport report = runCrossval(options);

    CrossvalGate impossible;
    impossible.mean_cycles_pct = 0.0;
    impossible.max_macs_pct = -1.0;
    const GateResult gate = checkGate(report, options, impossible);
    ASSERT_FALSE(gate.ok);
    ASSERT_GE(gate.failures.size(), 2u);
    // Failures must carry a reproducible triple description.
    EXPECT_NE(gate.failures[0].find("triple #"), std::string::npos)
        << gate.failures[0];
    EXPECT_NE(gate.failures[0].find("pes"), std::string::npos)
        << gate.failures[0];
}

TEST(Crossval, JsonIsDeterministicAndStructured)
{
    const CrossvalOptions options = fastOptions();
    const std::string a = crossvalJson(options, runCrossval(options));
    const std::string b = crossvalJson(options, runCrossval(options));
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("\"endpoint\":\"crossval\""), std::string::npos);
    EXPECT_NE(a.find("\"metrics\""), std::string::npos);
    EXPECT_NE(a.find("\"hist\""), std::string::npos);
}

TEST(Crossval, SparseInputResidencyTriple1408)
{
    // Seed 7, triple #1408: a 1x1 conv whose 0.75-dense input fits the
    // 64 KiB L2 only as nonzeros. Both engines must decide residency
    // on the stored elements: a model that tests the dense volume
    // refetches the input from DRAM, 206% over the simulator's cycles
    // and 1469% over its DRAM fill.
    const TripleSpec spec = sampleTriple(7, 1408);
    ASSERT_EQ(spec.describe(),
              "conv n1 k16 c64 y32 x32 r1 s1 stride1 pad0 din0.75 dw1 "
              "| C-P | pes128 noc16/1 dram4/4 l2_65536 vw1");
    const Layer layer = spec.layer();
    const Dataflow df = dataflows::byName(spec.dataflow);
    const AcceleratorConfig cfg = spec.config();
    const SimResult sim = simulateLayer(layer, df, cfg);
    const LayerAnalysis la = Analyzer(cfg).analyzeLayer(layer, df);

    EXPECT_NEAR(la.runtime, sim.cycles, 0.01 * sim.cycles);
    const double sim_dram = sim.dram_fill[TensorKind::Weight] +
                            sim.dram_fill[TensorKind::Input];
    const double ana_dram = la.cost.dram_reads[TensorKind::Weight] +
                            la.cost.dram_reads[TensorKind::Input];
    EXPECT_NEAR(ana_dram, sim_dram, 0.01 * sim_dram);
}

TEST(Crossval, SparseTriplesOnePerDataflowMatchCycles)
{
    // One sparse seed-7 triple per dataflow. A runtime engine that
    // moves weights and inputs across the NoC and the off-chip
    // interface at dense volume, while the simulator moves only
    // nonzeros, reads 86-98% over the simulator's cycles on each.
    const std::pair<std::uint64_t, const char *> triples[] = {
        {1053, "conv n1 k16 c32 y32 x32 r5 s5 stride2 pad0 din0.5 dw0.6 "
               "| C-P | pes32 noc4/1 dram4/4 l2_1048576 vw1"},
        {1304, "conv n2 k64 c32 y20 x20 r1 s3 stride1 pad1 din0.5 dw1 "
               "| KC-P | pes32 noc4/1 dram4/4 l2_262144 vw2"},
        {817, "conv n1 k32 c64 y28 x28 r3 s3 stride2 pad1 din0.5 dw1 "
              "| YR-P | pes128 noc4/1 dram4/4 l2_65536 vw4"},
        {1373, "conv n2 k48 c48 y7 x7 r3 s3 stride2 pad1 din0.5 dw1 "
               "| YX-P | pes64 noc4/1 dram8/4 l2_262144 vw1"},
        {1966, "conv n2 k64 c8 y28 x28 r5 s5 stride2 pad0 din0.5 dw0.6 "
               "| X-P | pes256 noc8/1 dram16/4 l2_262144 vw4"},
    };
    for (const auto &[index, describe] : triples) {
        SCOPED_TRACE(index);
        const TripleSpec spec = sampleTriple(7, index);
        ASSERT_EQ(spec.describe(), describe);
        const Layer layer = spec.layer();
        const Dataflow df = dataflows::byName(spec.dataflow);
        const AcceleratorConfig cfg = spec.config();
        const SimResult sim = simulateLayer(layer, df, cfg);
        const LayerAnalysis la = Analyzer(cfg).analyzeLayer(layer, df);
        EXPECT_NEAR(la.runtime, sim.cycles, 0.01 * sim.cycles);
    }
}

TEST(Crossval, RecordIngressVersusL2SupplyDisagreementIsPinned)
{
    // The runtime engine's traffic record and the cost engine's L2
    // supply count still derive weight and input ingress separately:
    // the record from the per-case deltas, the count from the flat
    // analysis's L1 fill. On seed 7's first 1000 triples they differ
    // by more than 1% on 53 (40 KC-P, 5 C-P, 5 YX-P, 3 YR-P), never
    // on X-P. Making the count a sum over the record removes the
    // disagreement; until then this bound may only move down.
    std::map<std::string, int> differing;
    int total = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const TripleSpec spec = sampleTriple(7, i);
        LayerAnalysis la;
        try {
            la = Analyzer(spec.config())
                     .analyzeLayer(spec.layer(),
                                   dataflows::byName(spec.dataflow));
        } catch (const Error &) {
            continue;
        }
        const PerformanceResult &perf = la.perf;
        double ingress = perf.initial.advance * perf.initial.ingress();
        for (const TrafficCase &c : perf.cases)
            ingress += c.advance * c.ingress();
        const double supply = perf.l2_supply[TensorKind::Weight] +
                              perf.l2_supply[TensorKind::Input];
        if (std::abs(ingress - supply) > 0.01 * supply) {
            ++differing[spec.dataflow];
            ++total;
        }
    }
    std::string breakdown;
    for (const auto &[dataflow, count] : differing)
        breakdown += dataflow + ": " + std::to_string(count) + "  ";
    EXPECT_LE(total, 53) << breakdown;
    EXPECT_EQ(differing["X-P"], 0) << breakdown;
}

TEST(Crossval, StepClassesFarFewerThanSteps)
{
    // The whole point of the periodic path: across the sample the
    // evaluated step classes must be a small fraction of the nest
    // steps they stand in for.
    const CrossvalReport report = runCrossval(fastOptions());
    EXPECT_GT(report.total_steps, 5.0 * report.total_classes);
}

} // namespace
} // namespace crossval
} // namespace maestro
