#include "src/mapper/mapper.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/error.hh"
#include "src/core/cluster_analysis.hh"
#include "src/core/cost_analysis.hh"
#include "src/core/flat_analysis.hh"
#include "src/core/performance_analysis.hh"
#include "src/core/pipeline.hh"
#include "src/core/reuse_analysis.hh"
#include "src/core/tensor_analysis.hh"
#include "src/dse/shard.hh"
#include "src/obs/metrics.hh"
#include "src/obs/obs.hh"

namespace maestro
{
namespace mapper
{

namespace
{

/** Span site of one whole mapLayer search. */
const obs::Site &
searchSite()
{
    static const obs::Site site{
        "mapper.search", "mapper",
        &obs::Registry::global().histogram(
            "maestro_mapper_search_us",
            "Wall time of whole mapper searches in microseconds")};
    return site;
}

/** Span site of one candidate-evaluation shard. */
const obs::Site &
shardSite()
{
    static const obs::Site site{
        "mapper.shard", "mapper",
        &obs::Registry::global().histogram(
            "maestro_mapper_shard_us",
            "Wall time of mapper evaluation shards in microseconds")};
    return site;
}

/** Span site of one whole-network search. */
const obs::Site &
networkSite()
{
    static const obs::Site site{
        "mapper.network", "mapper",
        &obs::Registry::global().histogram(
            "maestro_mapper_network_us",
            "Wall time of whole-network mapper searches in "
            "microseconds")};
    return site;
}

/** Span site of one joint mapping x hardware search. */
const obs::Site &
jointSite()
{
    static const obs::Site site{
        "mapper.joint", "mapper",
        &obs::Registry::global().histogram(
            "maestro_mapper_joint_us",
            "Wall time of joint mapper + DSE searches in "
            "microseconds")};
    return site;
}

/** Bumps the per-search registry counters (once per mapLayer). */
void
countSearch(const MapperStats &stats)
{
    if ((obs::mode() & obs::kTiming) == 0)
        return;
    obs::Registry &reg = obs::Registry::global();
    static obs::Counter &searches = reg.counter(
        "maestro_mapper_searches_total", "Mapper searches completed");
    static obs::Counter &covered = reg.counter(
        "maestro_mapper_covered_points_total",
        "Declared mapping-space points covered by completed searches "
        "(including pruned equivalence classes)");
    static obs::Counter &evaluated = reg.counter(
        "maestro_mapper_evaluated_total",
        "Candidate mappings evaluated through the stage engines");
    static obs::Counter &pruned = reg.counter(
        "maestro_mapper_pruned_total",
        "Candidate mappings pruned before evaluation (symmetry dedup "
        "+ capacity cuts)");
    searches.add(1);
    covered.add(static_cast<std::uint64_t>(stats.covered));
    evaluated.add(static_cast<std::uint64_t>(stats.evaluated));
    pruned.add(static_cast<std::uint64_t>(stats.pruned_symmetry +
                                          stats.pruned_capacity));
}

/** Metrics of one evaluated candidate (a slot of the sharded run). */
struct EvalSlot
{
    bool ok = false;
    bool fits_l1 = true;
    double runtime = 0.0;
    double energy = 0.0;
    double edp = 0.0;
    double utilization = 0.0;
};

/**
 * Runs one candidate through the pure stage engines (the DSE fast
 * sweep's path; bit-identical to the pipeline by
 * assembleLayerAnalysis's contract). Failures are recorded in the
 * slot, never thrown — the serial merge reports them
 * deterministically.
 */
EvalSlot
evaluateCandidate(const Dataflow &dataflow, const Layer &layer,
                  const TensorInfo &tensors, bool depthwise,
                  double compute_scale, const AcceleratorConfig &config,
                  const EnergyModel &energy_model)
{
    EvalSlot slot;
    try {
        const BoundDataflow bound =
            bindDataflow(dataflow, layer, config.num_pes);
        const std::vector<LevelReuse> reuse =
            analyzeReuse(bound, tensors, depthwise);
        const FlatAnalysis flat =
            analyzeFlat(bound, reuse, tensors, depthwise, config);
        const PerformanceResult perf = analyzePerformance(
            bound, reuse, flat, layer, config, compute_scale);
        CostResult cost = analyzeCost(bound, reuse, flat, perf, layer,
                                      config, energy_model);
        const LayerAnalysis analysis = assembleLayerAnalysis(
            perf, std::move(cost), layer, config);
        slot.ok = true;
        slot.fits_l1 = analysis.cost.fits_l1;
        slot.runtime = analysis.runtime;
        slot.energy = analysis.onchipEnergy();
        slot.edp = analysis.edp();
        slot.utilization = analysis.utilization;
    } catch (const std::exception &) {
        slot.ok = false;
    }
    return slot;
}

/** The objective's value from an evaluation slot. */
double
slotObjective(const EvalSlot &slot, Objective objective)
{
    switch (objective) {
    case Objective::Runtime:
        return slot.runtime;
    case Objective::Energy:
        return slot.energy;
    case Objective::Edp:
        break;
    }
    return slot.edp;
}

/** Seconds elapsed since a steady-clock mark. */
double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

const MappedDataflow &
MapperResult::best() const
{
    fatalIf(ranked.empty(), "mapper produced no valid mapping");
    return ranked.front();
}

double
objectiveValue(const LayerAnalysis &analysis, Objective objective)
{
    switch (objective) {
    case Objective::Runtime:
        return analysis.runtime;
    case Objective::Energy:
        return analysis.onchipEnergy();
    case Objective::Edp:
        break;
    }
    return analysis.edp();
}

MapperResult
mapLayer(const Analyzer &analyzer, const Layer &layer,
         Objective objective, const MapperOptions &options)
{
    obs::ScopedSpan span(searchSite());
    const auto t0 = std::chrono::steady_clock::now();
    layer.validate();

    MapperResult result;
    MapperStats &stats = result.stats;

    const SearchSpace space = buildSearchSpace(layer, options.space);
    const std::vector<Candidate> candidates =
        crossCandidates(layer, space);
    stats.covered = space.covered;
    stats.generated = candidates.size();

    const AcceleratorConfig &config = analyzer.config();

    // Cross-stage prune: canonical-key dedup + capacity cut. Probes
    // are filled in parallel; every keep/drop decision happens in the
    // serial index-order merge, so the survivor set is byte-identical
    // at any thread count. The exact oracle skips this entirely.
    std::vector<std::size_t> survivors;
    if (options.exact) {
        survivors.resize(candidates.size());
        std::iota(survivors.begin(), survivors.end(), 0);
    } else {
        struct ProbeSlot
        {
            std::string key;
            double l1_lower = -1.0;
        };
        const std::vector<ProbeSlot> probes = dse::shardedFill<ProbeSlot>(
            options.num_threads, candidates.size(),
            [&](std::size_t begin, std::size_t end,
                std::vector<ProbeSlot> &slots) {
                for (std::size_t i = begin; i < end; ++i) {
                    // An unbindable candidate keeps the empty key and
                    // is never cut; evaluation rejects it.
                    BoundDataflow bound;
                    try {
                        bound = bindDataflow(candidates[i].dataflow,
                                             layer, config.num_pes);
                    } catch (const std::exception &) {
                        continue;
                    }
                    slots[i].key = canonicalMappingKey(bound);
                    if (options.enforce_l1_capacity)
                        slots[i].l1_lower =
                            l1LowerBoundBytes(bound, layer, config);
                }
            });
        // The set views the keys in `probes`, which outlive it.
        std::unordered_set<std::string_view> seen;
        seen.reserve(candidates.size() * 2);
        survivors.reserve(candidates.size());
        for (std::size_t i = 0; i < probes.size(); ++i) {
            const ProbeSlot &slot = probes[i];
            if (!slot.key.empty() && !seen.insert(slot.key).second) {
                ++stats.pruned_symmetry;
                continue;
            }
            if (options.enforce_l1_capacity &&
                slot.l1_lower > static_cast<double>(config.l1_bytes)) {
                ++stats.pruned_capacity;
                continue;
            }
            survivors.push_back(i);
        }
    }

    // Evaluation: sharded fill into per-candidate slots, serial
    // index-order merge (dse/shard.hh discipline).
    const TensorInfo tensors = analyzeTensors(layer);
    const bool depthwise = layer.type() == OpType::DepthwiseConv;
    const double compute_scale =
        layer.inputDensityVal() * layer.weightDensityVal();
    const EnergyModel &energy_model = analyzer.energyModel();

    struct Scored
    {
        double value;
        std::size_t cand;
        EvalSlot slot;
    };
    std::vector<Scored> scored;
    scored.reserve(survivors.size());
    dse::shardedRanges<EvalSlot>(
        options.num_threads, survivors.size(),
        [&](std::size_t begin, std::size_t end,
            std::vector<EvalSlot> &slots) {
            obs::ScopedSpan shard_span(shardSite());
            shard_span.arg("begin", begin);
            shard_span.arg("end", end);
            for (std::size_t i = begin; i < end; ++i)
                slots[i] = evaluateCandidate(
                    candidates[survivors[i]].dataflow, layer, tensors,
                    depthwise, compute_scale, config, energy_model);
        },
        [&](const EvalSlot &slot, std::size_t i) {
            ++stats.evaluated;
            if (!slot.ok) {
                ++stats.rejected;
                return;
            }
            if (options.enforce_l1_capacity && !slot.fits_l1) {
                ++stats.rejected;
                return;
            }
            scored.push_back(
                {slotObjective(slot, objective), survivors[i], slot});
        });

    // Rank by (objective value, enumeration index): "first
    // encountered wins" made explicit and traversal-independent. The
    // index breaks every tie, so ordering just the top_k prefix ranks
    // exactly like a full sort.
    const auto ranked_end =
        scored.begin() + static_cast<std::ptrdiff_t>(
                             std::min(scored.size(), options.top_k));
    std::partial_sort(scored.begin(), ranked_end, scored.end(),
                      [](const Scored &a, const Scored &b) {
                          if (a.value != b.value)
                              return a.value < b.value;
                          return a.cand < b.cand;
                      });
    scored.erase(ranked_end, scored.end());

    result.ranked.reserve(scored.size());
    for (const Scored &s : scored) {
        const Dataflow &df = candidates[s.cand].dataflow;
        MappedDataflow md;
        md.dataflow = Dataflow(candidateName(df), df.directives());
        md.runtime = s.slot.runtime;
        md.energy = s.slot.energy;
        md.edp = s.slot.edp;
        md.utilization = s.slot.utilization;
        md.objective_value = s.value;
        md.index = candidates[s.cand].index;
        result.ranked.push_back(std::move(md));
    }

    stats.seconds = secondsSince(t0);
    stats.per_second =
        stats.seconds > 0.0 ? stats.covered / stats.seconds : 0.0;
    countSearch(stats);
    return result;
}

NetworkMapperResult
mapNetwork(const Analyzer &analyzer, const Network &network,
           Objective objective, const MapperOptions &options)
{
    obs::ScopedSpan span(networkSite());
    fatalIf(network.layers().empty(),
            "mapper: network has no layers");

    NetworkMapperResult net;

    // Per-layer searches with cross-layer shape dedup: layers sharing
    // a shape fingerprint search once and reuse the winner.
    std::unordered_map<std::string, std::size_t> shape_to_entry;
    for (const Layer &layer : network.layers()) {
        const std::string shape = shapeFingerprint(layer);
        NetworkLayerBest entry;
        entry.layer = layer.name();
        const auto it = shape_to_entry.find(shape);
        if (it != shape_to_entry.end()) {
            entry.reused = true;
            entry.best = net.layers[it->second].best;
            entry.stats = net.layers[it->second].stats;
        } else {
            MapperResult res =
                mapLayer(analyzer, layer, objective, options);
            entry.best = res.best();
            entry.stats = res.stats;
            shape_to_entry.emplace(shape, net.layers.size());
        }

        net.stats.covered += entry.stats.covered;
        net.stats.generated += entry.stats.generated;
        net.stats.pruned_symmetry += entry.stats.pruned_symmetry;
        net.stats.pruned_capacity += entry.stats.pruned_capacity;
        if (!entry.reused) {
            net.stats.evaluated += entry.stats.evaluated;
            net.stats.rejected += entry.stats.rejected;
            net.stats.seconds += entry.stats.seconds;
        }
        net.adaptive_total += entry.best.objective_value;
        net.layers.push_back(std::move(entry));
    }
    net.unique_shapes = shape_to_entry.size();
    net.stats.per_second = net.stats.seconds > 0.0
                               ? net.stats.covered / net.stats.seconds
                               : 0.0;

    // Best single dataflow: the distinct per-layer winners
    // (structural fingerprint dedup, execution order) scored over
    // every layer through the warm pipeline caches.
    std::vector<Dataflow> winners;
    std::unordered_set<std::string> seen;
    for (const NetworkLayerBest &entry : net.layers) {
        if (seen.insert(dataflowFingerprint(entry.best.dataflow))
                .second)
            winners.push_back(entry.best.dataflow);
    }

    std::vector<Analyzer::BatchJob> jobs;
    jobs.reserve(winners.size() * network.layers().size());
    for (const Dataflow &df : winners)
        for (const Layer &layer : network.layers())
            jobs.push_back(Analyzer::BatchJob{layer, df});
    const std::vector<Analyzer::BatchEval> evals =
        analyzer.evaluateBatch(jobs, options.num_threads);

    const std::size_t num_layers = network.layers().size();
    bool have_best = false;
    for (std::size_t w = 0; w < winners.size(); ++w) {
        NetworkDataflowScore score;
        score.dataflow = winners[w];
        bool valid = true;
        for (std::size_t l = 0; l < num_layers && valid; ++l) {
            const Analyzer::BatchEval &ev = evals[w * num_layers + l];
            if (!ev.ok) {
                valid = false;
                break;
            }
            score.runtime += ev.analysis.runtime;
            score.energy += ev.analysis.onchipEnergy();
            score.edp += ev.analysis.edp();
            score.objective_value +=
                objectiveValue(ev.analysis, objective);
        }
        if (!valid)
            continue;
        if (!have_best ||
            score.objective_value < net.best_single.objective_value) {
            net.best_single = std::move(score);
            have_best = true;
        }
    }
    fatalIf(!have_best,
            "mapper: no single dataflow maps every layer");
    return net;
}

JointMapperResult
mapJoint(const Analyzer &analyzer, const Layer &layer,
         Objective objective, const dse::DesignSpace &space,
         const dse::DseOptions &dse_options,
         const MapperOptions &options)
{
    obs::ScopedSpan span(jointSite());
    JointMapperResult joint;
    joint.mapping = mapLayer(analyzer, layer, objective, options);

    const std::size_t shortlist =
        std::min(options.joint_dataflows, joint.mapping.ranked.size());
    fatalIf(shortlist == 0,
            "mapper: joint mode needs at least one feasible mapping");

    const dse::Explorer explorer(analyzer.config(), AreaPowerModel(),
                                 analyzer.energyModel(),
                                 analyzer.pipeline());
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < shortlist; ++i) {
        const MappedDataflow &md = joint.mapping.ranked[i];
        const dse::DseResult res =
            explorer.explore(layer, md.dataflow, space, dse_options);
        JointDesign design;
        design.mapping = md;
        switch (objective) {
        case Objective::Runtime:
            design.point = res.best_throughput;
            design.objective_value =
                design.point.valid ? design.point.runtime : kInf;
            break;
        case Objective::Energy:
            design.point = res.best_energy;
            design.objective_value =
                design.point.valid ? design.point.energy : kInf;
            break;
        case Objective::Edp:
            design.point = res.best_edp;
            design.objective_value =
                design.point.valid ? design.point.edp : kInf;
            break;
        }
        joint.explored_points += res.explored_points;
        joint.valid_points += res.valid_points;
        joint.designs.push_back(std::move(design));
    }
    std::size_t best_index = 0;
    for (std::size_t i = 1; i < joint.designs.size(); ++i)
        if (joint.designs[i].objective_value <
            joint.designs[best_index].objective_value)
            best_index = i;
    fatalIf(!joint.designs[best_index].point.valid,
            "mapper: joint sweep found no valid design point");
    joint.best = joint.designs[best_index];
    return joint;
}

} // namespace mapper
} // namespace maestro
