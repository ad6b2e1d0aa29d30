/**
 * @file
 * Mapper v2 property tests: the pruned decoupled search must match
 * the exhaustive oracle (MapperOptions::exact) byte-for-byte in its
 * bests, and must be byte-identical at any thread count — these
 * tests drive sampled layers x objectives x {1, 4} threads and
 * compare every field with EXPECT_EQ (no tolerances), mirroring
 * tests/test_dse_equivalence.cc.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/common/error.hh"
#include "src/dse/design_space.hh"
#include "src/mapper/mapper.hh"
#include "src/model/zoo.hh"
#include "src/serve/handlers.hh"

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

/** A trimmed space that keeps the exhaustive oracle tractable while
 *  still exercising clusters, ladder clipping, and both prunes. */
mapper::SpaceOptions
smallSpace()
{
    mapper::SpaceOptions space;
    space.cluster_sizes = {1, 4};
    space.channel_tiles = {1, 8};
    space.activation_tiles = {1, 2};
    return space;
}

/** Layers spanning the operator classes (small extents for speed). */
std::vector<Layer>
sampleLayers()
{
    std::vector<Layer> layers;
    layers.push_back(
        Layer("conv", OpType::Conv2D, dims(1, 16, 8, 18, 18, 3, 3)));
    layers.push_back(Layer("dwconv", OpType::DepthwiseConv,
                           dims(1, 1, 16, 14, 14, 3, 3)));
    layers.push_back(
        Layer("fc", OpType::FullyConnected, dims(1, 32, 24, 1, 1, 1, 1)));
    Layer strided("strided", OpType::Conv2D, dims(1, 8, 4, 17, 17, 5, 5));
    strided.stride(2);
    layers.push_back(strided);
    return layers;
}

void
expectSameMapping(const mapper::MappedDataflow &a,
                  const mapper::MappedDataflow &b, const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.dataflow.name(), b.dataflow.name());
    EXPECT_EQ(a.dataflow.toString(), b.dataflow.toString());
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.edp, b.edp);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.objective_value, b.objective_value);
}

constexpr mapper::Objective kObjectives[] = {
    mapper::Objective::Runtime,
    mapper::Objective::Energy,
    mapper::Objective::Edp,
};

TEST(MapperEquivalence, PrunedBestsMatchExhaustiveOracle)
{
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    for (const Layer &layer : sampleLayers()) {
        for (mapper::Objective objective : kObjectives) {
            SCOPED_TRACE(layer.name());
            mapper::MapperOptions pruned;
            pruned.space = smallSpace();
            mapper::MapperOptions exact = pruned;
            exact.exact = true;

            const mapper::MapperResult p =
                mapLayer(analyzer, layer, objective, pruned);
            const mapper::MapperResult e =
                mapLayer(analyzer, layer, objective, exact);

            // The prunes must remove work, never candidates the
            // oracle would rank first.
            EXPECT_EQ(p.stats.generated, e.stats.generated);
            EXPECT_GT(p.stats.pruned_symmetry, 0u);
            EXPECT_LT(p.stats.evaluated, e.stats.evaluated);
            expectSameMapping(p.best(), e.best(), "best vs oracle");
        }
    }
}

TEST(MapperEquivalence, CapacityCutMatchesOracleUnderEnforcement)
{
    // A small L1 makes the conservative pre-bind cut fire; the best
    // must still match the oracle, which rejects via the analyzer's
    // own fits_l1 after evaluation.
    AcceleratorConfig config = AcceleratorConfig::paperStudy();
    config.l1_bytes = 512;
    const Analyzer analyzer(config);
    std::size_t total_capacity_pruned = 0;
    for (const Layer &layer : sampleLayers()) {
        SCOPED_TRACE(layer.name());
        mapper::MapperOptions pruned;
        pruned.space = smallSpace();
        pruned.enforce_l1_capacity = true;
        mapper::MapperOptions exact = pruned;
        exact.exact = true;

        const mapper::MapperResult p = mapLayer(
            analyzer, layer, mapper::Objective::Runtime, pruned);
        const mapper::MapperResult e = mapLayer(
            analyzer, layer, mapper::Objective::Runtime, exact);
        total_capacity_pruned += p.stats.pruned_capacity;
        expectSameMapping(p.best(), e.best(), "best vs oracle");
    }
    // The cut must actually fire somewhere on the corpus (layers with
    // working sets already under 512 bytes legitimately skip it).
    EXPECT_GT(total_capacity_pruned, 0u);
}

TEST(MapperEquivalence, ThreadCountIsByteInvariant)
{
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    for (const Layer &layer : sampleLayers()) {
        for (mapper::Objective objective : kObjectives) {
            SCOPED_TRACE(layer.name());
            mapper::MapperOptions serial;
            serial.space = smallSpace();
            serial.num_threads = 1;
            mapper::MapperOptions threaded = serial;
            threaded.num_threads = 4;

            const mapper::MapperResult a =
                mapLayer(analyzer, layer, objective, serial);
            const mapper::MapperResult b =
                mapLayer(analyzer, layer, objective, threaded);
            ASSERT_EQ(a.ranked.size(), b.ranked.size());
            for (std::size_t i = 0; i < a.ranked.size(); ++i) {
                expectSameMapping(a.ranked[i], b.ranked[i], "ranked");
                EXPECT_EQ(a.ranked[i].index, b.ranked[i].index);
            }
            EXPECT_EQ(a.stats.evaluated, b.stats.evaluated);
            EXPECT_EQ(a.stats.pruned_symmetry, b.stats.pruned_symmetry);
        }
    }
}

TEST(Mapper, SymmetryAccountingAndCoverage)
{
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    const Network net = zoo::vgg16();
    mapper::MapperOptions options;
    options.space = smallSpace();
    const mapper::MapperResult res =
        mapLayer(analyzer, net.layer("CONV11"),
                 mapper::Objective::Runtime, options);

    // Coverage accounts the declared (7!-order) space; the canonical
    // enumeration is orders of magnitude smaller.
    EXPECT_GT(res.stats.covered,
              static_cast<double>(res.stats.generated) * 100.0);
    EXPECT_EQ(res.stats.evaluated + res.stats.pruned_symmetry +
                  res.stats.pruned_capacity,
              res.stats.generated);
    EXPECT_GT(res.stats.per_second, 0.0);
    ASSERT_FALSE(res.ranked.empty());
    for (const mapper::MappedDataflow &md : res.ranked)
        EXPECT_GT(md.runtime, 0.0) << md.dataflow.name();
    // Ranked ascending by objective, index tiebreak.
    for (std::size_t i = 1; i < res.ranked.size(); ++i)
        EXPECT_LE(res.ranked[i - 1].objective_value,
                  res.ranked[i].objective_value);
}

TEST(Mapper, TopKBoundsRankedSize)
{
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    mapper::MapperOptions options;
    options.space = smallSpace();
    options.top_k = 3;
    const mapper::MapperResult res =
        mapLayer(analyzer, sampleLayers()[0],
                 mapper::Objective::Edp, options);
    EXPECT_EQ(res.ranked.size(), 3u);
}

TEST(Mapper, NetworkModeDedupsShapesAndBoundsAdaptive)
{
    Network net("tiny");
    net.addLayer(
        Layer("conv_a", OpType::Conv2D, dims(1, 16, 8, 18, 18, 3, 3)));
    net.addLayer(
        Layer("conv_b", OpType::Conv2D, dims(1, 16, 8, 18, 18, 3, 3)));
    net.addLayer(
        Layer("fc", OpType::FullyConnected, dims(1, 32, 24, 1, 1, 1, 1)));

    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    mapper::MapperOptions options;
    options.space = smallSpace();
    const mapper::NetworkMapperResult res = mapNetwork(
        analyzer, net, mapper::Objective::Runtime, options);

    ASSERT_EQ(res.layers.size(), 3u);
    EXPECT_EQ(res.unique_shapes, 2u);
    EXPECT_FALSE(res.layers[0].reused);
    EXPECT_TRUE(res.layers[1].reused);
    EXPECT_FALSE(res.layers[2].reused);
    // The reused layer inherits its representative's winner.
    EXPECT_EQ(res.layers[0].best.dataflow.toString(),
              res.layers[1].best.dataflow.toString());
    // Per-layer bests lower-bound any single dataflow.
    EXPECT_GE(res.best_single.objective_value, res.adaptive_total);
    EXPECT_GT(res.best_single.runtime, 0.0);
    // Coverage counts all three layers; evaluation only two searches.
    EXPECT_EQ(res.stats.covered, res.layers[0].stats.covered +
                                     res.layers[1].stats.covered +
                                     res.layers[2].stats.covered);
}

TEST(Mapper, JointModeFindsValidDesign)
{
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    mapper::MapperOptions options;
    options.space = smallSpace();
    options.joint_dataflows = 2;
    const mapper::JointMapperResult res = mapJoint(
        analyzer, sampleLayers()[0], mapper::Objective::Edp,
        dse::DesignSpace::small(), dse::DseOptions(), options);

    EXPECT_EQ(res.designs.size(), 2u);
    EXPECT_TRUE(res.best.point.valid);
    EXPECT_GT(res.explored_points, 0.0);
    EXPECT_LE(res.best.objective_value,
              res.designs.front().objective_value);
    // The joint winner's hardware point respects the budgets.
    EXPECT_GT(res.best.point.num_pes, 0u);
    EXPECT_GT(res.best.point.edp, 0.0);
}

TEST(Mapper, RankDataflowsRejectsAndOrdersDeterministically)
{
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    const Layer layer = sampleLayers()[0];
    mapper::MapperOptions options;
    options.space = smallSpace();
    const mapper::MapperResult res = mapLayer(
        analyzer, layer, mapper::Objective::Runtime, options);
    ASSERT_GE(res.ranked.size(), 2u);

    std::vector<Dataflow> candidates;
    for (const mapper::MappedDataflow &md : res.ranked)
        candidates.push_back(md.dataflow);
    std::size_t rejected = 0;
    const std::vector<mapper::MappedDataflow> ranked =
        mapper::rankDataflows(analyzer, layer,
                              mapper::Objective::Runtime, candidates,
                              candidates.size(), false, 1, &rejected);
    EXPECT_EQ(rejected, 0u);
    ASSERT_EQ(ranked.size(), res.ranked.size());
    for (std::size_t i = 0; i < ranked.size(); ++i)
        expectSameMapping(ranked[i], res.ranked[i], "batch vs engine");
}

/** Two-layer DSL body (distinct shapes) for handler tests. */
const char *kServeDsl = "Network tiny {\n"
                        "  Layer conv {\n"
                        "    Type: CONV;\n"
                        "    Dimensions { K: 8; C: 4; R: 3; S: 3; "
                        "Y: 16; X: 16; }\n"
                        "  }\n"
                        "  Layer fc {\n"
                        "    Type: FC;\n"
                        "    Dimensions { K: 16; C: 8; R: 1; S: 1; "
                        "Y: 1; X: 1; }\n"
                        "  }\n"
                        "}\n";

serve::RequestInputs
serveInputs(const serve::QueryParams &params)
{
    return serve::resolveRequest(kServeDsl, params,
                                 AcceleratorConfig::paperStudy());
}

TEST(MapperServe, TuneHandlerUsesWorkerBudgetDeterministically)
{
    // Regression for the server-side tuner ignoring the worker pool:
    // tuneJson now takes the worker budget, and its response must be
    // byte-identical whatever budget it gets (trimmed space to keep
    // the handler fast).
    const serve::QueryParams params{
        {"layer", "conv"},       {"objective", "edp"},
        {"clusters", "1,4"},     {"tiles", "1,8"},
        {"act_tiles", "1,2"},
    };
    const serve::RequestInputs inputs = serveInputs(params);
    const auto pipeline = std::make_shared<AnalysisPipeline>();
    const EnergyModel energy;
    const std::string serial =
        serve::tuneJson(inputs, params, pipeline, energy, 1);
    const std::string threaded =
        serve::tuneJson(inputs, params, pipeline, energy, 4);
    EXPECT_EQ(serial, threaded);
    EXPECT_NE(serial.find("\"mode\":\"layer\""), std::string::npos);
    EXPECT_NE(serial.find("\"search\""), std::string::npos);
}

TEST(MapperServe, TuneHandlerHonorsRequestKnobs)
{
    serve::QueryParams params{
        {"layer", "conv"},   {"top_k", "2"},  {"clusters", "1,4"},
        {"tiles", "1,8"},    {"act_tiles", "1"},
    };
    const serve::RequestInputs inputs = serveInputs(params);
    const auto pipeline = std::make_shared<AnalysisPipeline>();
    const EnergyModel energy;
    const std::string body =
        serve::tuneJson(inputs, params, pipeline, energy, 2);
    // top_k=2 keeps exactly two ranked entries.
    std::size_t entries = 0;
    for (std::size_t pos = body.find("\"dataflow\"");
         pos != std::string::npos;
         pos = body.find("\"dataflow\"", pos + 1))
        ++entries;
    EXPECT_EQ(entries, 2u);
    // Counts parse strictly: no zero, exponent, NaN, sign, or
    // trailing bytes (1e30 must never reach a size_t cast).
    for (const char *bad : {"0", "1e30", "nan", "inf", "-2", "2x"})
        EXPECT_THROW(serve::tuneJson(inputs,
                                     serve::QueryParams{
                                         {"layer", "conv"},
                                         {"top_k", bad},
                                     },
                                     pipeline, energy, 1),
                     Error)
            << bad;
}

TEST(MapperServe, TuneHandlerNetworkMode)
{
    const serve::QueryParams params{
        {"mode", "network"}, {"objective", "runtime"},
        {"clusters", "1,4"}, {"tiles", "1,8"},
        {"act_tiles", "1"},
    };
    const serve::RequestInputs inputs = serveInputs(params);
    const auto pipeline = std::make_shared<AnalysisPipeline>();
    const EnergyModel energy;
    const std::string body =
        serve::tuneJson(inputs, params, pipeline, energy, 2);
    EXPECT_NE(body.find("\"mode\":\"network\""), std::string::npos);
    EXPECT_NE(body.find("\"unique_shapes\":2"), std::string::npos);
    EXPECT_NE(body.find("\"best_single\""), std::string::npos);
    EXPECT_NE(body.find("\"winner\""), std::string::npos);
    // Byte-identical across worker budgets.
    EXPECT_EQ(body,
              serve::tuneJson(inputs, params, pipeline, energy, 4));
}

} // namespace
} // namespace maestro
