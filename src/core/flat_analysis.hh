/**
 * @file
 * Flattened nest analysis: the L2 <-> L1 traffic model.
 *
 * The cluster levels of a dataflow form one big loop nest: level 0's
 * loops enclose level 1's, and so on down to the PE chunk. The data a
 * PE must (re)fetch from L2 at any step depends only on which loop of
 * that *flattened* nest advanced — the same transition rule the reuse
 * engine applies within one level:
 *
 *  - the advancing loop is below every coupled loop: nothing to fetch
 *    (the PE's chunk is stationary across that advance — this is how
 *    NVDLA-style weight residency across output sweeps emerges);
 *  - the advancing loop is the innermost coupled loop: fetch only the
 *    sliding delta (convolutional halo reuse);
 *  - any coupled loop below the advancing one is reset: fetch the full
 *    PE chunk.
 *
 * Spatial maps contribute fold loops at their nest position; the
 * per-PE volumes scale to chip-wide L2/NoC volumes through the
 * per-level sharing ratios (multicast collapses shared data to one
 * transfer, fan-in trees collapse reduction partials to one commit).
 */

#ifndef MAESTRO_CORE_FLAT_ANALYSIS_HH
#define MAESTRO_CORE_FLAT_ANALYSIS_HH

#include "src/core/reuse_analysis.hh"
#include "src/hw/accelerator.hh"

namespace maestro
{

/**
 * One loop of the flattened nest.
 */
struct FlatLoop
{
    /** Cluster level this loop belongs to. */
    std::size_t level = 0;

    /** True for a spatial fold loop. */
    bool is_fold = false;

    /** Dimension (temporal loops only). */
    Dim dim = Dim::N;

    /** Trip count. */
    Count steps = 1;

    /** Transitions of the flattened nest this loop advances. */
    double advance_count = 0.0;

    /** Per-tensor new data per advance, per PE (elements). */
    TensorMap<double> delta_pe;
};

/**
 * Result of the flattened analysis.
 */
struct FlatAnalysis
{
    /** Flattened loops, outermost first. */
    std::vector<FlatLoop> loops;

    /** Per-PE steady chunk volume per tensor. */
    TensorMap<double> pe_chunk;

    /** Average simultaneously active PEs. */
    double active_pes = 1.0;

    /**
     * Chip-wide multipliers turning a per-PE volume into
     *  - noc: elements the interconnect carries (multicast-gated for
     *    weights and inputs, fan-in reduction gated for outputs),
     *  - delivered: elements written into the PEs' L1s (every tensor).
     */
    TensorMap<double> noc_mult;
    double delivered_mult = 1.0;

    /** Per-PE total L1 fill per tensor (V + sum of count x delta). */
    TensorMap<double> l1_fill_per_pe;

    /**
     * Per-PE L1 working set per tensor: the steady chunk, or the fold
     * working set for tensors resident across a spatial map's folds.
     */
    TensorMap<double> l1_resident_elems;

    /** Per-PE total output (partial) commits upward. */
    double egress_per_pe = 0.0;

    /** Unique final outputs of the whole layer. */
    double final_outputs = 0.0;
};

/**
 * Per-dim cumulative edge ratio (average chunk / steady chunk) across
 * all levels. Edge positions at an outer level shrink every inner
 * scope, so the ratios compose multiplicatively (first-order edge
 * correction). The flat engine's PE chunk averages and computeFloor's
 * edge-averaged partial sums both read it.
 */
DimMap<double> edgeRatios(const BoundDataflow &bound);

/**
 * Flattened analysis entry point.
 *
 * @param bound Bound dataflow.
 * @param reuse Per-level reuse profiles (for sharing ratios).
 * @param tensors Coupling info.
 * @param depthwise Depth-wise layer flag.
 * @param config Hardware (multicast / reduction support flags).
 */
FlatAnalysis analyzeFlat(const BoundDataflow &bound,
                         const std::vector<LevelReuse> &reuse,
                         const TensorInfo &tensors, bool depthwise,
                         const AcceleratorConfig &config);

} // namespace maestro

#endif // MAESTRO_CORE_FLAT_ANALYSIS_HH
