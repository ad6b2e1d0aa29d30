#include "src/mapper/mapper.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/error.hh"
#include "src/common/thread_pool.hh"
#include "src/core/cluster_analysis.hh"
#include "src/core/cost_analysis.hh"
#include "src/core/flat_analysis.hh"
#include "src/core/performance_analysis.hh"
#include "src/core/pipeline.hh"
#include "src/core/reuse_analysis.hh"
#include "src/core/tensor_analysis.hh"
#include "src/obs/obs.hh"
#include "src/obs/shared_metrics.hh"

namespace maestro
{
namespace mapper
{

namespace
{

/** Span site of one whole mapLayer search. */
constexpr obs::Site kSearchSite{"mapper.search", "mapper",
                                "maestro_mapper_search_us"};

/** Span site of one search class's shard. */
constexpr obs::Site kShardSite{"mapper.shard", "mapper",
                               "maestro_mapper_shard_us"};

/** Span site of one whole-network search. */
constexpr obs::Site kNetworkSite{"mapper.network", "mapper",
                                 "maestro_mapper_network_us"};

/** Span site of one joint mapping x hardware search. */
constexpr obs::Site kJointSite{"mapper.joint", "mapper",
                               "maestro_mapper_joint_us"};

/** Bumps the per-search counters (once per mapLayer). */
void
countSearch(const MapperStats &stats)
{
    if ((obs::mode() & obs::kTiming) == 0)
        return;
    obs::addCounter("maestro_mapper_searches_total", 1);
    obs::addCounter("maestro_mapper_covered_points_total",
                    static_cast<std::uint64_t>(stats.covered));
    obs::addCounter("maestro_mapper_evaluated_total",
                    static_cast<std::uint64_t>(stats.evaluated));
    obs::addCounter("maestro_mapper_pruned_total",
                    static_cast<std::uint64_t>(stats.pruned_symmetry +
                                               stats.pruned_capacity +
                                               stats.pruned_bound));
}

/** What the stage engines read of one search, besides the bound
 *  candidate itself. */
struct StageInputs
{
    const Layer &layer;
    const AcceleratorConfig &config;
    const EnergyModel &energy_model;
    TensorInfo tensors;
    bool depthwise;
};

/**
 * Runs a bound candidate through the pure stage engines (the DSE fast
 * sweep's path; bit-identical to the pipeline by
 * assembleLayerAnalysis's contract) and returns its objective value,
 * or nullopt when ranking rejects it (L1 over capacity when
 * enforced). Cost and assembly run only when ranking reads them or
 * `report` asks for them: the runtime objective without the L1 check
 * needs neither. A non-null `report` always receives the full
 * analysis.
 */
std::optional<double>
scoreBound(const BoundDataflow &bound, const StageInputs &in,
           Objective objective, bool enforce_l1,
           LayerAnalysis *report = nullptr)
{
    const std::vector<LevelReuse> reuse =
        analyzeReuse(bound, in.tensors, in.depthwise);
    const FlatAnalysis flat =
        analyzeFlat(bound, reuse, in.tensors, in.depthwise, in.config);
    PerformanceResult perf =
        analyzePerformance(bound, reuse, flat, in.layer, in.config);
    if (objective == Objective::Runtime && !enforce_l1 && !report)
        return layerRuntime(perf, in.layer);
    CostResult cost = analyzeCost(bound, reuse, flat, perf, in.layer,
                                  in.config, in.energy_model);
    LayerAnalysis analysis = assembleLayerAnalysis(
        std::move(perf), std::move(cost), in.layer, in.config);
    const bool fits = !enforce_l1 || analysis.cost.fits_l1;
    const double value = objectiveValue(analysis, objective);
    if (report)
        *report = std::move(analysis);
    if (!fits)
        return std::nullopt;
    return value;
}

/** A scored candidate: (objective value, enumeration index). The
 *  index breaks every tie, so the order is total. */
using Ranked = std::pair<double, std::size_t>;

/**
 * True when a runtime search may skip `bound` without moving its
 * class's ranking: the class heap `best` (a max-heap) holds top_k
 * entries, and the candidate's compute floor, below which no runtime
 * the engine prices can fall (ComputeFloor), already exceeds the worst
 * of them. Scaled by 1 - 1e-9, so rounding can never drop a candidate
 * that would rank.
 */
bool
losesOnFloor(const BoundDataflow &bound, const StageInputs &in,
             const std::vector<Ranked> &best, std::size_t top_k)
{
    if (best.empty() || best.size() < top_k)
        return false;
    // The group scaling layerRuntime applies to the runtime.
    const double floor =
        computeFloor(bound, in.layer, in.config).compute_only_runtime *
        static_cast<double>(in.layer.groupsVal());
    return floor * (1.0 - 1e-9) > best.front().first;
}

/** Keeps `entry` in `best`, a max-heap of the top_k smallest entries
 *  seen; it ranks exactly like a full sort cut to top_k. */
void
keepBest(std::vector<Ranked> &best, const Ranked &entry,
         std::size_t top_k)
{
    if (best.size() < top_k) {
        best.push_back(entry);
        std::push_heap(best.begin(), best.end());
    } else if (!best.empty() && entry < best.front()) {
        std::pop_heap(best.begin(), best.end());
        best.back() = entry;
        std::push_heap(best.begin(), best.end());
    }
}

/** What one class's shard leaves for the merge. */
struct ClassResult
{
    /** Its generated, pruned, evaluated and rejected counts. */
    MapperStats counts;

    /** Its own top_k heap. */
    std::vector<Ranked> best;
};

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
    obs::ScopedSpan span(kSearchSite);
    const auto t0 = std::chrono::steady_clock::now();
    layer.validate();

    MapperResult result;
    MapperStats &stats = result.stats;

    const SearchSpace space = buildSearchSpace(layer, options.space);
    stats.covered = space.covered;

    const StageInputs in{layer,
                         analyzer.config(),
                         analyzer.energyModel(),
                         analyzeTensors(layer),
                         layer.type() == OpType::DepthwiseConv};
    const auto l1_bytes = static_cast<double>(in.config.l1_bytes);

    // One shard per class: candidates of different classes never
    // share a canonical key (see kSearchClasses), so each shard dedups
    // against its own keys, ranks on its own and bounds against its
    // own heap, and no state crosses shards. The exact oracle walks the
    // same classes without keys, cuts or bounds.
    const bool bound_prune = objective == Objective::Runtime;
    std::vector<ClassResult> classes(kSearchClasses);
    const auto shard = [&](std::size_t cls) {
        obs::ScopedSpan shard_span(kShardSite);
        shard_span.arg("class", cls);
        ClassResult &out = classes[cls];
        // The shard's own storage: every candidate binds into `bound`
        // and keys into `held`, so neither allocates per candidate.
        MappingKeySet held;
        BoundDataflow bound;
        const auto visit = [&](const Dataflow &df, std::size_t index) {
            ++out.counts.generated;
            // A candidate that does not bind is evaluated and
            // rejected, never deduped or cut.
            bool bound_ok = false;
            try {
                bindDataflow(df, layer, in.config.num_pes, bound);
                bound_ok = true;
            } catch (const std::exception &) {
            }
            if (bound_ok && !options.exact) {
                if (!held.insert(bound)) {
                    ++out.counts.pruned_symmetry;
                    return;
                }
                if (options.enforce_l1_capacity &&
                    l1LowerBoundBytes(bound, layer, in.config) >
                        l1_bytes) {
                    ++out.counts.pruned_capacity;
                    return;
                }
                if (bound_prune &&
                    losesOnFloor(bound, in, out.best, options.top_k)) {
                    ++out.counts.pruned_bound;
                    return;
                }
            }
            ++out.counts.evaluated;
            std::optional<double> value;
            if (bound_ok) {
                try {
                    value = scoreBound(bound, in, objective,
                                       options.enforce_l1_capacity);
                } catch (const std::exception &) {
                }
            }
            if (value)
                keepBest(out.best, {*value, index}, options.top_k);
            else
                ++out.counts.rejected;
        };
        forEachCandidate(space, cls, visit);
    };
    ThreadPool::run(options.num_threads, classes.size(), shard);

    // The serial merge: (value, index) is a total order, so the
    // result does not depend on which shard ran which class.
    std::vector<Ranked> best;
    for (const ClassResult &c : classes) {
        stats.generated += c.counts.generated;
        stats.pruned_symmetry += c.counts.pruned_symmetry;
        stats.pruned_capacity += c.counts.pruned_capacity;
        stats.pruned_bound += c.counts.pruned_bound;
        stats.evaluated += c.counts.evaluated;
        stats.rejected += c.counts.rejected;
        for (const Ranked &entry : c.best)
            keepBest(best, entry, options.top_k);
    }
    std::sort_heap(best.begin(), best.end());

    // Only the ranked entries rebuild their candidate and rerun the
    // full chain for the metrics they report; a failure here is a
    // bug, so it is not caught.
    result.ranked.reserve(best.size());
    for (const auto &[value, i] : best) {
        const Dataflow df = candidateAt(space, i);
        LayerAnalysis analysis;
        scoreBound(bindDataflow(df, layer, in.config.num_pes), in,
                   objective, options.enforce_l1_capacity, &analysis);
        MappedDataflow md;
        md.dataflow = Dataflow(candidateName(df), df.directives());
        md.runtime = analysis.runtime;
        md.energy = analysis.onchipEnergy();
        md.edp = analysis.edp();
        md.utilization = analysis.utilization;
        md.objective_value = value;
        md.index = i;
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
    obs::ScopedSpan span(kNetworkSite);
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
        net.stats.pruned_bound += entry.stats.pruned_bound;
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
    obs::ScopedSpan span(kJointSite);
    JointMapperResult joint;
    joint.mapping = mapLayer(analyzer, layer, objective, options);

    const std::size_t shortlist =
        std::min(kJointDataflows, joint.mapping.ranked.size());
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
