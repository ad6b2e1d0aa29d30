/**
 * @file
 * Mapper v2 property tests: the pruned decoupled search must rank
 * exactly like the exhaustive oracle (MapperOptions::exact) once the
 * oracle's symmetry duplicates are dropped, entry by entry at several
 * top_k, and must be byte-identical at any thread count. These tests
 * drive sampled layers x objectives x thread counts and compare every
 * field with EXPECT_EQ (no tolerances), mirroring
 * tests/test_dse_equivalence.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/error.hh"
#include "src/dataflows/catalog.hh"
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
    layers.push_back(Layer("pointwise", OpType::PointwiseConv,
                           dims(1, 24, 3, 14, 14, 1, 1)));
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

/** The top_k values every oracle comparison runs at. */
constexpr std::size_t kTopKs[] = {1, 3, 10};

/**
 * The exhaustive oracle's search with its whole ranking, symmetry
 * duplicates dropped: every candidate evaluated (exact mode, no top_k
 * cut), then every entry whose canonical key a better-ranked entry
 * holds removed.
 * Where a key's holders analyze bit-identically, the first holder
 * ranked is the lowest-index one, which is the one the pruned search
 * keeps; where they differ, the comparison fails instead of hiding it.
 */
mapper::MapperResult
oracleRanking(const Analyzer &analyzer, const Layer &layer,
              mapper::Objective objective, mapper::MapperOptions options)
{
    options.exact = true;
    options.top_k = std::numeric_limits<std::size_t>::max();
    mapper::MapperResult oracle =
        mapLayer(analyzer, layer, objective, options);
    std::unordered_set<std::string> held;
    std::erase_if(oracle.ranked, [&](const mapper::MappedDataflow &md) {
        return !held.insert(mapper::canonicalMappingKey(bindDataflow(
                                md.dataflow, layer,
                                analyzer.config().num_pes)))
                    .second;
    });
    return oracle;
}

/** Every ranked entry of `pruned` against the oracle's first top_k:
 *  name, directives, metrics, objective value and index. */
void
expectOracleRanking(const mapper::MapperResult &pruned,
                    const std::vector<mapper::MappedDataflow> &oracle,
                    std::size_t top_k)
{
    SCOPED_TRACE("top_k " + std::to_string(top_k));
    ASSERT_EQ(pruned.ranked.size(), std::min(top_k, oracle.size()));
    for (std::size_t i = 0; i < pruned.ranked.size(); ++i) {
        SCOPED_TRACE("rank " + std::to_string(i + 1));
        expectSameMapping(pruned.ranked[i], oracle[i], "vs oracle");
        EXPECT_EQ(pruned.ranked[i].index, oracle[i].index);
    }
}

/**
 * The paper's array, and one whose NoC and off-chip interface are so
 * wide that every mapping is compute-bound: there the compute floor is
 * almost the runtime, so the bound prune removes the most candidates
 * and any loosening of its threshold drops a ranked one.
 */
std::vector<Analyzer>
oracleArrays()
{
    AcceleratorConfig compute_bound = AcceleratorConfig::paperStudy();
    compute_bound.noc = NocModel(1024.0, 0.0);
    compute_bound.offchip = NocModel(1024.0, 0.0);
    std::vector<Analyzer> arrays;
    arrays.emplace_back(AcceleratorConfig::paperStudy());
    arrays.emplace_back(compute_bound);
    return arrays;
}

TEST(MapperEquivalence, PrunedBestsMatchExhaustiveOracle)
{
    std::size_t bound_pruned[std::size(kTopKs)] = {};
    for (const Analyzer &analyzer : oracleArrays()) {
        SCOPED_TRACE(analyzer.config().noc.bandwidth());
        for (const Layer &layer : sampleLayers()) {
            std::vector<mapper::MappedDataflow> bests;
            for (mapper::Objective objective : kObjectives) {
                SCOPED_TRACE(layer.name());
                SCOPED_TRACE(static_cast<int>(objective));
                mapper::MapperOptions pruned;
                pruned.space = smallSpace();
                const mapper::MapperResult e =
                    oracleRanking(analyzer, layer, objective, pruned);
                EXPECT_EQ(e.stats.pruned_bound, 0u);

                for (std::size_t k = 0; k < std::size(kTopKs); ++k) {
                    pruned.top_k = kTopKs[k];
                    const mapper::MapperResult p =
                        mapLayer(analyzer, layer, objective, pruned);
                    // The prunes must remove work, never a candidate
                    // the oracle would rank.
                    EXPECT_EQ(p.stats.generated, e.stats.generated);
                    EXPECT_GT(p.stats.pruned_symmetry, 0u);
                    EXPECT_LT(p.stats.evaluated, e.stats.evaluated);
                    expectOracleRanking(p, e.ranked, kTopKs[k]);
                    if (objective == mapper::Objective::Runtime)
                        bound_pruned[k] += p.stats.pruned_bound;
                    else
                        EXPECT_EQ(p.stats.pruned_bound, 0u);
                }
                bests.push_back(e.best());
            }
            // Each objective's winner is at least as good on its own
            // metric as the other objective's winner (kObjectives
            // order: runtime, energy, edp).
            SCOPED_TRACE(layer.name());
            EXPECT_LE(bests[1].energy, bests[0].energy);
            EXPECT_LE(bests[0].runtime, bests[1].runtime);
        }
    }
    // The bound prune must actually fire on the corpus at every top_k.
    for (std::size_t k = 0; k < std::size(kTopKs); ++k)
        EXPECT_GT(bound_pruned[k], 0u) << "top_k " << kTopKs[k];
}

TEST(MapperEquivalence, CapacityCutMatchesOracleUnderEnforcement)
{
    // A small L1 makes the conservative pre-bind cut fire; the ranking
    // must still match the oracle, which rejects via the analyzer's
    // own fits_l1 after evaluation. The bound prune then works on the
    // candidates the cut lets through.
    std::size_t total_capacity_pruned = 0;
    std::size_t total_bound_pruned = 0;
    for (const Analyzer &array : oracleArrays()) {
        SCOPED_TRACE(array.config().noc.bandwidth());
        AcceleratorConfig config = array.config();
        config.l1_bytes = 512;
        const Analyzer analyzer(config);
        for (const Layer &layer : sampleLayers()) {
            SCOPED_TRACE(layer.name());
            mapper::MapperOptions pruned;
            pruned.space = smallSpace();
            pruned.enforce_l1_capacity = true;
            const mapper::MapperResult oracle = oracleRanking(
                analyzer, layer, mapper::Objective::Runtime, pruned);
            for (std::size_t top_k : kTopKs) {
                pruned.top_k = top_k;
                const mapper::MapperResult p = mapLayer(
                    analyzer, layer, mapper::Objective::Runtime, pruned);
                total_capacity_pruned += p.stats.pruned_capacity;
                total_bound_pruned += p.stats.pruned_bound;
                expectOracleRanking(p, oracle.ranked, top_k);
            }
        }
    }
    // Both cuts must actually fire somewhere on the corpus (layers
    // with working sets already under 512 bytes legitimately skip the
    // capacity cut).
    EXPECT_GT(total_capacity_pruned, 0u);
    EXPECT_GT(total_bound_pruned, 0u);
}

TEST(MapperEquivalence, ThreadCountIsByteInvariant)
{
    // 2, 3 and 4 threads hand the classes to different threads (2 is
    // the server's default). The enforced leg runs on a 512-byte L1,
    // where the capacity cut fires: a later duplicate of a cut key
    // must still count as a symmetry prune, as it does serially.
    AcceleratorConfig small_l1 = AcceleratorConfig::paperStudy();
    small_l1.l1_bytes = 512;
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    const Analyzer enforced(small_l1);
    for (bool enforce : {false, true}) {
        for (const Layer &layer : sampleLayers()) {
            for (mapper::Objective objective : kObjectives) {
                SCOPED_TRACE(layer.name());
                SCOPED_TRACE(enforce ? "enforce_l1" : "no capacity cut");
                const Analyzer &an = enforce ? enforced : analyzer;
                mapper::MapperOptions serial;
                serial.space = smallSpace();
                serial.enforce_l1_capacity = enforce;
                serial.num_threads = 1;
                const mapper::MapperResult a =
                    mapLayer(an, layer, objective, serial);
                for (std::size_t threads : {2u, 3u, 4u}) {
                    SCOPED_TRACE(threads);
                    mapper::MapperOptions threaded = serial;
                    threaded.num_threads = threads;
                    const mapper::MapperResult b =
                        mapLayer(an, layer, objective, threaded);
                    ASSERT_EQ(a.ranked.size(), b.ranked.size());
                    for (std::size_t i = 0; i < a.ranked.size(); ++i) {
                        expectSameMapping(a.ranked[i], b.ranked[i],
                                          "ranked");
                        EXPECT_EQ(a.ranked[i].index, b.ranked[i].index);
                    }
                    EXPECT_EQ(a.stats.generated, b.stats.generated);
                    EXPECT_EQ(a.stats.pruned_symmetry,
                              b.stats.pruned_symmetry);
                    EXPECT_EQ(a.stats.pruned_capacity,
                              b.stats.pruned_capacity);
                    EXPECT_EQ(a.stats.pruned_bound, b.stats.pruned_bound);
                    EXPECT_EQ(a.stats.evaluated, b.stats.evaluated);
                    EXPECT_EQ(a.stats.rejected, b.stats.rejected);
                }
            }
        }
    }
}

TEST(Mapper, RankedMetricsMatchAnalyzer)
{
    // Ranking reads only the objective, so the search skips cost for
    // most candidates; every ranked entry must still report the
    // analyzer's own numbers for its mapping.
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    auto check = [&](const Layer &layer, mapper::Objective objective,
                     const mapper::MapperOptions &options) {
        SCOPED_TRACE(layer.name());
        const mapper::MapperResult res =
            mapLayer(analyzer, layer, objective, options);
        ASSERT_FALSE(res.ranked.empty());
        for (const mapper::MappedDataflow &md : res.ranked) {
            SCOPED_TRACE(md.dataflow.name());
            const LayerAnalysis ref =
                analyzer.analyzeLayer(layer, md.dataflow);
            EXPECT_EQ(md.runtime, ref.runtime);
            EXPECT_EQ(md.energy, ref.onchipEnergy());
            EXPECT_EQ(md.edp, ref.edp());
            EXPECT_EQ(md.utilization, ref.utilization);
            EXPECT_EQ(md.objective_value,
                      mapper::objectiveValue(ref, objective));
        }
    };
    mapper::MapperOptions small;
    small.space = smallSpace();
    for (const Layer &layer : sampleLayers())
        for (mapper::Objective objective : kObjectives)
            check(layer, objective, small);
    const Network net = zoo::vgg16();
    check(net.layer("CONV11"), mapper::Objective::Runtime,
          mapper::MapperOptions());
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
                  res.stats.pruned_capacity + res.stats.pruned_bound,
              res.stats.generated);
    EXPECT_GT(res.stats.per_second, 0.0);
    ASSERT_FALSE(res.ranked.empty());
    for (const mapper::MappedDataflow &md : res.ranked)
        EXPECT_GT(md.runtime, 0.0) << md.dataflow.name();
    // Ranked ascending by objective, index tiebreak.
    for (std::size_t i = 1; i < res.ranked.size(); ++i)
        EXPECT_LE(res.ranked[i - 1].objective_value,
                  res.ranked[i].objective_value);

    // The default space contains Table-3-like shapes and beats every
    // catalog entry on this layer.
    const mapper::MapperResult full = mapper::mapLayer(
        analyzer, net.layer("CONV11"), mapper::Objective::Runtime);
    for (const Dataflow &df : dataflows::table3())
        EXPECT_LT(full.best().runtime,
                  analyzer.analyzeLayer(net.layer("CONV11"), df).runtime)
            << df.name();
}

TEST(Mapper, CandidateCountIsBoundedBeforeAnyIsBuilt)
{
    // The default space's largest layer stays far below the bound.
    const Network net = zoo::vgg16();
    const Layer &conv11 = net.layer("CONV11");
    EXPECT_EQ(mapper::candidateCount(mapper::buildSearchSpace(
                  conv11, mapper::SpaceOptions())),
              18720u);

    // One on-chip choice (spatial K) whose tiled dims C, Y and X take
    // 400, 500 and 1 tiles sits exactly at the bound.
    mapper::SearchSpace space;
    space.onchip.resize(1);
    space.ladders[Dim::K].assign(1, 1);
    space.ladders[Dim::C].assign(400, 1);
    space.ladders[Dim::Y].assign(500, 1);
    space.ladders[Dim::X].assign(1, 1);
    EXPECT_EQ(mapper::candidateCount(space), mapper::kMaxCandidates);

    // A second choice (spatial C) adds 500 tuples: every class's walk
    // is refused with a clean Error before any candidate is built.
    space.onchip.push_back(space.onchip[0]);
    space.onchip[1].spatial_pos = 1;
    EXPECT_EQ(mapper::candidateCount(space),
              mapper::kMaxCandidates + 500);
    for (std::size_t cls = 0; cls < mapper::kSearchClasses; ++cls)
        EXPECT_THROW(mapper::forEachCandidate(
                         space, cls,
                         [](const Dataflow &, std::size_t) {
                             ADD_FAILURE() << "a candidate was built";
                         }),
                     Error);
}

TEST(Mapper, CandidateKeysStayInTheirClass)
{
    // Each class's shard dedups against its own keys, which is exact
    // only if every holder of a canonical key lies in one class. At 16
    // PEs Cluster(16) and Cluster(64) bind alike, so splitting a class
    // by cluster size would break this there. The shards' key set, fed
    // the same stream (duplicates included) through one reused
    // binding, must call exactly the same candidates new as the
    // string keys of fresh bindings.
    const Network vgg = zoo::vgg16();
    const Network mobilenet = zoo::mobilenetV2();
    const Network resnet = zoo::resnet50();
    const Network dcgan = zoo::dcgan();
    const std::vector<const Layer *> layers = {
        &vgg.layer("CONV1"), &mobilenet.layer("B2_dw"),
        &resnet.layer("CONV1"), &dcgan.layer("TRCONV2")};
    std::size_t duplicates = 0;
    for (const Layer *layer : layers) {
        const mapper::SearchSpace space =
            mapper::buildSearchSpace(*layer, mapper::SpaceOptions());
        for (Count pes : {16, 256}) {
            SCOPED_TRACE(layer->name());
            SCOPED_TRACE(pes);
            std::unordered_map<std::string, std::size_t> key_class;
            mapper::MappingKeySet keys;
            BoundDataflow reused;
            std::vector<int> seen(mapper::candidateCount(space), 0);
            for (std::size_t cls = 0; cls < mapper::kSearchClasses;
                 ++cls) {
                mapper::forEachCandidate(
                    space, cls,
                    [&](const Dataflow &df, std::size_t index) {
                        ASSERT_LT(index, seen.size());
                        ++seen[index];
                        const std::string key = mapper::canonicalMappingKey(
                            bindDataflow(df, *layer, pes));
                        const auto [it, fresh] =
                            key_class.emplace(key, cls);
                        duplicates += fresh ? 0 : 1;
                        EXPECT_EQ(it->second, cls)
                            << "candidate " << index;
                        bindDataflow(df, *layer, pes, reused);
                        EXPECT_EQ(keys.insert(reused), fresh)
                            << "candidate " << index;
                    });
            }
            EXPECT_EQ(keys.size(), key_class.size());
            // The classes cover the cross product exactly once.
            EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
                      static_cast<std::ptrdiff_t>(seen.size()));
        }
    }
    EXPECT_GT(duplicates, 0u);
}

TEST(Mapper, SmallArrayStatsAreFrozen)
{
    // ResNet-50 CONV1 at 16 PEs, where cluster sizes of 16 and more
    // bind alike, so splitting a class by cluster size would prune
    // fewer duplicates. Frozen values, the same at any thread count.
    AcceleratorConfig config = AcceleratorConfig::paperStudy();
    config.num_pes = 16;
    const Analyzer analyzer(config);
    const Network net = zoo::resnet50();
    for (std::size_t threads : {1u, 2u, 3u}) {
        SCOPED_TRACE(threads);
        mapper::MapperOptions options;
        options.num_threads = threads;
        const mapper::MapperResult res =
            mapLayer(analyzer, net.layer("CONV1"),
                     mapper::Objective::Runtime, options);
        EXPECT_EQ(res.stats.generated, 13728u);
        EXPECT_EQ(res.stats.pruned_symmetry, 8256u);
        EXPECT_EQ(res.stats.pruned_capacity, 0u);
        EXPECT_EQ(res.stats.pruned_bound, 4211u);
        EXPECT_EQ(res.stats.evaluated, 1261u);
        EXPECT_EQ(res.stats.rejected, 0u);
    }
}

TEST(Mapper, CandidateAtRebuildsTheGeneratedCandidate)
{
    for (const Layer &layer : sampleLayers()) {
        SCOPED_TRACE(layer.name());
        const mapper::SearchSpace space =
            mapper::buildSearchSpace(layer, smallSpace());
        std::size_t visited = 0;
        for (std::size_t cls = 0; cls < mapper::kSearchClasses; ++cls) {
            mapper::forEachCandidate(
                space, cls, [&](const Dataflow &df, std::size_t index) {
                    ++visited;
                    EXPECT_EQ(mapper::candidateAt(space, index).toString(),
                              df.toString())
                        << "candidate " << index;
                });
        }
        EXPECT_EQ(visited, mapper::candidateCount(space));
        EXPECT_THROW(mapper::candidateAt(space, visited), Error);
    }
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
    EXPECT_THROW(mapper::MapperResult().best(), Error);
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
    const mapper::JointMapperResult res = mapJoint(
        analyzer, sampleLayers()[0], mapper::Objective::Edp,
        dse::DesignSpace::small(), dse::DseOptions(), options);

    EXPECT_EQ(res.designs.size(), mapper::kJointDataflows);
    EXPECT_TRUE(res.best.point.valid);
    EXPECT_GT(res.explored_points, 0.0);
    EXPECT_LE(res.best.objective_value,
              res.designs.front().objective_value);
    // The joint winner's hardware point respects the budgets.
    EXPECT_GT(res.best.point.num_pes, 0u);
    EXPECT_GT(res.best.point.edp, 0.0);
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

/** The /tune body of the request's run under a `threads` budget. */
std::string
tuneBody(const serve::RequestInputs &inputs,
         const serve::QueryParams &params,
         const std::shared_ptr<AnalysisPipeline> &pipeline,
         const EnergyModel &energy, std::size_t threads)
{
    return serve::tuneJson(
        inputs, serve::tuneRun(inputs, params, pipeline, energy, threads));
}

TEST(MapperServe, TuneHandlerUsesWorkerBudgetDeterministically)
{
    // Regression for the server-side tuner ignoring the worker pool:
    // tuneRun takes the worker budget, and its response must be
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
        tuneBody(inputs, params, pipeline, energy, 1);
    const std::string threaded =
        tuneBody(inputs, params, pipeline, energy, 4);
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
        tuneBody(inputs, params, pipeline, energy, 2);
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
        EXPECT_THROW(tuneBody(inputs,
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
        tuneBody(inputs, params, pipeline, energy, 2);
    EXPECT_NE(body.find("\"mode\":\"network\""), std::string::npos);
    EXPECT_NE(body.find("\"unique_shapes\":2"), std::string::npos);
    EXPECT_NE(body.find("\"best_single\""), std::string::npos);
    EXPECT_NE(body.find("\"winner\""), std::string::npos);
    // Byte-identical across worker budgets.
    EXPECT_EQ(body,
              tuneBody(inputs, params, pipeline, energy, 4));
}

} // namespace
} // namespace maestro
