/**
 * @file
 * Reuse analysis engine (paper Sec. 4.1 and Tables 1-2).
 *
 * For every cluster level and every tensor this engine derives:
 *
 *  - the per-unit working-set (chunk) volume,
 *  - the *spatial* structure across the level's units: full sharing
 *    (multicast for inputs/weights, spatial reduction for outputs),
 *    halo overlap (sliding-window reuse between neighbours), or
 *    disjoint partitioning,
 *  - the *temporal* structure across the level's steps: for each loop
 *    of the level's nest, the volume of new data a unit must fetch
 *    when that loop advances (zero for stationary tensors, a sliding
 *    delta for convolutional reuse, the full chunk on a reset).
 *
 * The temporal model follows the transition-counting view of the
 * paper's Init/Steady/Edge iteration cases: each step of the nest has
 * exactly one advancing loop; a tensor refetches data only if one of
 * its coupled loops advanced or was reset. Deltas use sweep-exact
 * averages so that chunk + sum(count x delta) equals the extent-exact
 * total volume along each dimension.
 */

#ifndef MAESTRO_CORE_REUSE_ANALYSIS_HH
#define MAESTRO_CORE_REUSE_ANALYSIS_HH

#include <vector>

#include "src/common/inline_list.hh"
#include "src/core/cluster_analysis.hh"
#include "src/core/tensor_analysis.hh"

namespace maestro
{

/**
 * One loop of a level's nest: either an iterating temporal directive
 * or the fold loop of the level's co-mapped spatial directives.
 */
struct LoopInfo
{
    /** True for the spatial fold loop. */
    bool is_fold = false;

    /** Dimension (temporal loops only). */
    Dim dim = Dim::N;

    /** Trip count (> 1 by construction). */
    Count steps = 1;

    /**
     * Number of nest transitions in which this loop is the advancing
     * one: (steps - 1) x product of outer loops' steps.
     */
    double advance_count = 0.0;
};

/**
 * One entry per loop of a level's nest, held inline. Binding leaves
 * every dim one directive per level, so a nest holds at most one loop
 * per dim plus the fold loop: never more than kNumDims + 1 = 8.
 */
template <typename T>
using LevelLoops = InlineList<T, kNumDims + 1>;

/**
 * Spatio-temporal traffic profile of one tensor at one level.
 */
struct TensorLevelTraffic
{
    /** Steady per-unit working-set volume (elements). */
    double chunk_volume = 0.0;

    /** True when every active unit holds an identical chunk. */
    bool fully_shared = false;

    /**
     * Unique fraction of the union of the active units' chunks:
     * 1/active_units when fully shared, 1 when disjoint, in between
     * for halo (sliding-window) overlap.
     */
    double spatial_unique_ratio = 1.0;

    /**
     * Output tensor only: true when the level's units produce partial
     * sums for the *same* outputs, requiring spatial reduction.
     */
    bool spatial_reduction = false;

    /** Per-loop per-unit new-data volume when that loop advances. */
    LevelLoops<double> delta_per_loop;

    /**
     * Total per-unit traffic across one full level execution:
     * initial chunk plus all advance deltas. For the output tensor
     * this is the total volume of (partial) results written upward.
     */
    double traffic_per_unit = 0.0;
};

/**
 * Reuse analysis result for one level.
 */
struct LevelReuse
{
    /** Nest loops outermost-first (only iterating ones). */
    LevelLoops<LoopInfo> loops;

    /** Per-tensor traffic profiles. */
    TensorMap<TensorLevelTraffic> traffic;

    /** Unique outputs produced by one full level execution. */
    double outputs_per_exec = 0.0;
};

/**
 * One storage dimension of a tensor's chunk at some level: the mapping
 * dimension that moves it, the per-unit chunk size, the level-scope
 * extent, and the unit-to-unit spatial shift. Output rows/columns are
 * derived storage dims of the (Y, R) / (X, S) pairs.
 */
struct StorageDimView
{
    Dim map_dim = Dim::N; ///< mapping dim that moves this storage dim
    double chunk = 1.0;   ///< per-unit steady chunk size
    double avg = 1.0;     ///< position-averaged chunk size (edge-aware)
    double extent = 1.0;  ///< level-scope extent
    double shift = 0.0;   ///< unit-to-unit spatial shift
};

/**
 * The storage-dim views of one tensor at one level, held inline: a
 * tensor has at most four storage dims, and the engines build these
 * per tensor, per level and per fold loop, so they stay off the heap.
 */
using StorageDims = InlineList<StorageDimView, 4>;

/**
 * Output positions covered by an activation chunk given a filter
 * chunk: uses the halo-extended window min(m_act + (E_f - m_f), E_act)
 * so partial filter chunks count the outputs they contribute to.
 */
Count outputChunkSize(Count act_chunk, Count act_extent,
                      Count filt_chunk, Count filt_extent, Count stride);

/**
 * Builds the storage-dim view of one tensor at one level.
 *
 * @param level Bound level.
 * @param kind Which tensor.
 * @param depthwise Depth-wise layer flag (output coupled to C).
 */
StorageDims tensorStorageDims(const BoundLevel &level, TensorKind kind,
                              bool depthwise);

/**
 * Reuse analysis engine entry point for one level.
 *
 * @param level Bound level from the cluster analysis engine.
 * @param tensors Coupling info from the tensor analysis engine.
 * @param depthwise True for depth-wise layers (output coupled to C).
 * @return Reuse and traffic profile of the level.
 */
LevelReuse analyzeLevelReuse(const BoundLevel &level,
                             const TensorInfo &tensors, bool depthwise);

/**
 * Runs reuse analysis for all levels of a bound dataflow.
 */
std::vector<LevelReuse> analyzeReuse(const BoundDataflow &bound,
                                     const TensorInfo &tensors,
                                     bool depthwise);

} // namespace maestro

#endif // MAESTRO_CORE_REUSE_ANALYSIS_HH
