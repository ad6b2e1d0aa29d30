/**
 * @file
 * The mapping-space search engine (the paper's Sec. 7 auto-tuner):
 * searches the decoupled space built by mapper/search_space over one
 * layer, a whole network, or jointly with the closed-form hardware
 * sweep of dse/explorer.
 *
 * Determinism. Every candidate carries its enumeration index, and
 * ranking orders by (objective value, index), a total order. The
 * search shards by class (kSearchClasses in search_space.hh): each
 * class's shard keeps its own counts and top_k, and the serial merge
 * sums the counts and merges the heaps, so results are byte-identical
 * for any num_threads.
 *
 * Oracle. With MapperOptions::exact the engine skips the symmetry
 * dedup, the capacity cut and the bound prune and evaluates every
 * generated candidate (capacity is still enforced post-evaluation when
 * requested, from the analyzer's own fits_l1). Because the prunes only
 * remove candidates that analyze bit-identically to a kept lower-index
 * representative (symmetry), that the analyzer itself would reject
 * (capacity), or whose runtime cannot beat the worst of their class's
 * full top_k (bound), the pruned search's ranking is the oracle's with
 * each symmetry duplicate dropped, byte-for-byte, names included.
 *
 * Evaluation path. Each class's shard builds its candidates one at a
 * time in enumeration order (forEachCandidate, which retiles one
 * directive list per on-chip choice in place), binds each once into
 * the shard's own BoundDataflow and keys it into the shard's own
 * MappingKeySet, so building, binding and keying a candidate
 * allocates nothing once that storage has grown; shards share none of
 * it. A shard drops a candidate whose key it already holds, or, under
 * enforce_l1_capacity, one the capacity cut rejects;
 * candidates of different classes never share a key, so that is the
 * whole space's dedup. A runtime search then drops, once the class's
 * top_k heap is full, a candidate whose compute floor (computeFloor,
 * from the binding alone) exceeds the heap's worst value: its runtime
 * is at least that floor, so it cannot enter the heap. Every other
 * candidate runs through the pure stage engines on that same binding
 * (reuse -> flat -> performance; the reuse engine's per-level lists
 * are inline, so scoring a candidate's runtime allocates six times),
 * like the DSE fast sweep: bit-identical to the memoizing pipeline by
 * assembleLayerAnalysis's contract, without thrashing the shared LRU
 * caches with tens of thousands of one-shot mappings. Cost and
 * assembleLayerAnalysis run only when ranking reads them (the energy
 * and EDP objectives, or fits_l1 under enforce_l1_capacity). No
 * candidate outlives its visit: only the ranked mappings are rebuilt
 * from their index (candidateAt) to rerun the full chain for the
 * runtime, energy, EDP and utilization they report, and only they get
 * their candidateName. Network mode's best-single-dataflow scoring
 * goes through Analyzer::evaluateBatch instead, so repeated shapes
 * hit the warm pipeline caches.
 */

#ifndef MAESTRO_MAPPER_MAPPER_HH
#define MAESTRO_MAPPER_MAPPER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "src/core/analyzer.hh"
#include "src/dataflows/adaptive.hh"
#include "src/dse/design_space.hh"
#include "src/dse/explorer.hh"
#include "src/mapper/search_space.hh"
#include "src/model/network.hh"

namespace maestro
{
namespace mapper
{

/** The tuning objective, shared with the adaptive module. */
using dataflows::Objective;

/**
 * Search knobs. The space bounds live in `space`; the rest controls
 * pruning, ranking, and parallelism.
 */
struct MapperOptions
{
    /** Bounds of the declared mapping space. */
    SpaceOptions space;

    /** Keep at most this many ranked results. */
    std::size_t top_k = 10;

    /** Reject mappings whose L1 requirement exceeds the config (the
     *  pruned search additionally applies the conservative pre-bind
     *  capacity cut; see search_space.hh). */
    bool enforce_l1_capacity = false;

    /** Exhaustive oracle mode: no symmetry dedup, no capacity cut,
     *  no bound prune; every generated candidate is evaluated. Its
     *  ranking, with symmetry duplicates dropped, is byte-identical
     *  to the pruned search's (see file comment). */
    bool exact = false;

    /** Threads evaluating candidates (<= 1 = serial); results are
     *  byte-identical for any value. */
    std::size_t num_threads = 1;
};

/** Joint mode: how many shortlisted mappings enter the hardware
 *  sweep. */
inline constexpr std::size_t kJointDataflows = 4;

/** One ranked mapping and its measured metrics. */
struct MappedDataflow
{
    Dataflow dataflow{"mapping"};
    double runtime = 0.0;
    double energy = 0.0;
    double edp = 0.0;
    double utilization = 0.0;

    /** The minimized objective's value. */
    double objective_value = 0.0;

    /** Deterministic enumeration index (the ranking tiebreak). */
    std::size_t index = 0;
};

/** Search accounting for one mapLayer call. */
struct MapperStats
{
    /** Declared cross-product points this search covers (the
     *  coverage unit; includes symmetry-collapsed, ladder-clipped,
     *  and capacity-cut points). */
    double covered = 0.0;

    /** Structural candidates emitted by the cross product. */
    std::size_t generated = 0;

    /** Candidates dropped by canonical-mapping-key dedup (a kept
     *  lower-index candidate analyzes bit-identically). */
    std::size_t pruned_symmetry = 0;

    /** Candidates dropped by the conservative L1 capacity cut. */
    std::size_t pruned_capacity = 0;

    /** Candidates a runtime search dropped because their compute
     *  floor already exceeded the worst entry of their class's full
     *  top_k heap (never in exact mode, and 0 for the energy and EDP
     *  objectives). */
    std::size_t pruned_bound = 0;

    /** Candidates that survive the three prunes (generated minus
     *  pruned_symmetry, pruned_capacity and pruned_bound) and so run
     *  the stage engines; all six counts are the same at any thread
     *  count. */
    std::size_t evaluated = 0;

    /** Evaluated candidates rejected (bind/analysis failure, or L1
     *  over capacity when enforced). */
    std::size_t rejected = 0;

    /** Wall time of the search (never feeds back into results). */
    double seconds = 0.0;

    /** covered / seconds. */
    double per_second = 0.0;
};

/** Result of one single-layer search. */
struct MapperResult
{
    /** Ranked mappings, best first (at most top_k). */
    std::vector<MappedDataflow> ranked;

    MapperStats stats;

    /** Convenience: the winner. @throws Error if nothing survived. */
    const MappedDataflow &best() const;
};

/** The objective's value on an analyzed layer. */
double objectiveValue(const LayerAnalysis &analysis,
                      Objective objective);

/**
 * Searches the mapping space of one layer.
 *
 * @param analyzer Analyzer with the target hardware (stage engines
 *        use its config and energy model; the pipeline caches are
 *        not touched).
 * @param layer Layer to map.
 * @param objective What to minimize.
 * @param options Space bounds and search knobs.
 */
MapperResult mapLayer(const Analyzer &analyzer, const Layer &layer,
                      Objective objective,
                      const MapperOptions &options = MapperOptions());

/** Per-layer outcome of a whole-network search. */
struct NetworkLayerBest
{
    /** Layer name. */
    std::string layer;

    /** True when this layer's search was served from an earlier
     *  layer with the same shape fingerprint (cross-layer dedup). */
    bool reused = false;

    /** The layer's winning mapping. */
    MappedDataflow best;

    /** The layer's search accounting (copied for reused layers). */
    MapperStats stats;
};

/** One dataflow scored across a whole network. */
struct NetworkDataflowScore
{
    Dataflow dataflow{"mapping"};
    double runtime = 0.0; ///< sum of per-layer cycles
    double energy = 0.0;  ///< sum of per-layer on-chip energy
    double edp = 0.0;     ///< sum of per-layer EDPs

    /** Sum of per-layer objective values (comparable with
     *  adaptive_total). */
    double objective_value = 0.0;
};

/** Result of a whole-network search. */
struct NetworkMapperResult
{
    /** Per-layer winners, in execution order. */
    std::vector<NetworkLayerBest> layers;

    /** Best single dataflow applied to every layer, chosen among the
     *  distinct per-layer winners (structural fingerprint dedup). */
    NetworkDataflowScore best_single;

    /** Sum of per-layer best objective values (the adaptive bound the
     *  paper's Sec. 7 tuner aims at). */
    double adaptive_total = 0.0;

    /** Distinct layer shapes actually searched. */
    std::size_t unique_shapes = 0;

    /** Aggregate accounting. covered/generated/pruned sum over ALL
     *  layers (reused layers inherit their representative's numbers —
     *  that coverage is the point of the dedup); evaluated/seconds
     *  reflect only the searches actually run. */
    MapperStats stats;
};

/**
 * Searches every layer of a network: per-layer winners plus the best
 * single dataflow across the whole network. Layers sharing a shape
 * fingerprint are searched once (cross-layer dedup); the best-single
 * scoring runs through the warm pipeline caches.
 */
NetworkMapperResult mapNetwork(
    const Analyzer &analyzer, const Network &network,
    Objective objective, const MapperOptions &options = MapperOptions());

/** One shortlisted mapping co-optimized with the hardware sweep. */
struct JointDesign
{
    /** The shortlisted mapping (metrics at the base hardware). */
    MappedDataflow mapping;

    /** The best hardware point found for it. */
    dse::DesignPoint point;

    /** The objective at that point (+inf when no valid point). */
    double objective_value = 0.0;
};

/** Result of a joint mapping x hardware search. */
struct JointMapperResult
{
    /** The base-hardware mapping search. */
    MapperResult mapping;

    /** One entry per shortlisted mapping, shortlist order. */
    std::vector<JointDesign> designs;

    /** The winning (mapping, hardware) pair. */
    JointDesign best;

    /** Aggregate DSE accounting across the shortlist sweeps. */
    double explored_points = 0.0;
    double valid_points = 0.0;
};

/**
 * Joint mode: shortlists the mapper's top kJointDataflows mappings
 * at the base hardware, then runs the closed-form `(PEs, BW)` sweep
 * of dse::Explorer for each and reports the best pair. The objective
 * maps onto the sweep's OptTarget (Runtime -> Throughput).
 */
JointMapperResult mapJoint(const Analyzer &analyzer, const Layer &layer,
                           Objective objective,
                           const dse::DesignSpace &space,
                           const dse::DseOptions &dse_options,
                           const MapperOptions &options = MapperOptions());

} // namespace mapper
} // namespace maestro

#endif // MAESTRO_MAPPER_MAPPER_HH
