/**
 * @file
 * Cost analysis engine (paper Sec. 4.3 and Fig. 8).
 *
 * Converts the flat/performance engines' traffic into buffer access
 * counts, buffer size requirements, reuse factors, and energy:
 *
 *  - L2 reads/writes and NoC elements from the L2 <-> L1 supply and
 *    commit traffic of the flattened nest,
 *  - DRAM reads/writes and the L2 fill from level 0's unique traffic
 *    (the DRAM <-> L2 boundary),
 *  - L1 reads/writes from an implicit register (L0) level: the PE's
 *    chunk iterated element-wise in the innermost level's directive
 *    order, so operand reuse captured in registers never touches L1 —
 *    the paper's "Map Target: PE L0 buffer (Reg)" directives (Fig. 4),
 *    synthesized automatically,
 *  - buffer requirements via double buffering: twice the steady
 *    working set at the relevant boundary (paper Fig. 8),
 *  - energy from activity counts x the energy model's table.
 *
 * Uniform sparsity (paper Sec. 4.4) discounts weight/input traffic and
 * MACs by the layer's density factors.
 */

#ifndef MAESTRO_CORE_COST_ANALYSIS_HH
#define MAESTRO_CORE_COST_ANALYSIS_HH

#include <algorithm>

#include "src/core/performance_analysis.hh"
#include "src/hw/energy.hh"
#include "src/model/layer.hh"

namespace maestro
{

/**
 * Whole-layer cost result.
 */
struct CostResult
{
    /** Algorithmic MAC count (after density discounts). */
    double total_macs = 0.0;

    /** Per-tensor L1 scratchpad reads (summed over all PEs). */
    TensorMap<double> l1_reads;

    /** Per-tensor L1 scratchpad writes. */
    TensorMap<double> l1_writes;

    /** Per-tensor L2 scratchpad reads. */
    TensorMap<double> l2_reads;

    /** Per-tensor L2 scratchpad writes. */
    TensorMap<double> l2_writes;

    /** Per-tensor DRAM reads (capacity-aware; see dram_fill_model). */
    TensorMap<double> dram_reads;

    /**
     * Per-tensor DRAM fill the mapping alone implies (before the L2
     * capacity correction): when a whole tensor fits in half the L2
     * (double buffering), its level-0 refetches collapse to a single
     * fetch and dram_reads drops to the tensor volume.
     */
    TensorMap<double> dram_fill_model;

    /** Per-tensor stored elements: nonzeros, volume x density (for
     *  capacity re-derivation). Per-group, like dram_fill_model:
     *  grouped convolutions process one group's tensors at a time, so
     *  the L2 residency check is per-group (see `groups`). */
    TensorMap<double> tensor_volumes;

    /**
     * Group multiplier applied to the activity counts (1 for dense
     * layers). tensor_volumes and dram_fill_model are per-group;
     * every other count in this struct is already scaled by this
     * factor. Re-derivations of DRAM traffic from the per-group fill
     * model (dse::energyFromSums) must multiply by `groups`.
     */
    double groups = 1.0;

    /** Per-tensor DRAM writes. */
    TensorMap<double> dram_writes;

    /** Elements carried by the NoC (all tensors). */
    double noc_elements = 0.0;

    /** Required per-PE L1 capacity (bytes, double buffered). */
    double l1_bytes_required = 0.0;

    /** Required L2 capacity (bytes, double buffered). */
    double l2_bytes_required = 0.0;

    /** True when the configuration's buffers meet the requirements. */
    bool fits_l1 = true;
    bool fits_l2 = true;

    /**
     * Reuse factor per tensor: algorithmic uses per L2 fetch (paper
     * Fig. 11's "number of local accesses per fetch").
     */
    TensorMap<double> reuse_factor;

    /** Energy breakdown in MAC-energy units. */
    EnergyBreakdown energy;

    /** Total on-chip energy (MAC + L1 + L2 + NoC, no DRAM). */
    double onchipEnergy() const;

    /**
     * The count sums dse::energyFromSums consumes: per-level access
     * totals (summed over tensors in kAllTensors order) plus the
     * DRAM-fill inputs. Total energy at fixed counts is affine in the
     * per-access energies, so these scalars — not the full per-tensor
     * breakdown — are all the DSE needs to re-price a design's buffer
     * capacities. The weight and input DRAM fill depends on the L2
     * size, so l2_writes leaves it out: the re-pricing derives the
     * fill and charges each filled element one DRAM read and one L2
     * write.
     */
    struct AccessSums
    {
        double total_macs = 0.0;
        double l1_reads = 0.0;
        double l1_writes = 0.0;
        double l2_reads = 0.0;
        double l2_writes = 0.0; ///< output writes only
        double noc_elements = 0.0;
        double output_dram_writes = 0.0;
        double weight_volume = 0.0; ///< per-group stored elements
        double input_volume = 0.0;  ///< per-group stored elements
        double weight_fill = 0.0;   ///< per-group DRAM fill model
        double input_fill = 0.0;    ///< per-group DRAM fill model
        double l2_required = 0.0;   ///< schedule's L2 working set (bytes)
        double groups = 1.0;
    };

    /** Collapses this result's counts into the sums above. */
    AccessSums accessSums() const;
};

/**
 * Cost analysis engine entry point.
 *
 * @param bound Bound dataflow.
 * @param reuse Per-level reuse profiles.
 * @param flat Flattened analysis.
 * @param perf Performance result (traffic totals).
 * @param layer The analyzed layer (densities, volumes).
 * @param config Hardware configuration.
 * @param energy_model Energy table to apply.
 */
CostResult analyzeCost(const BoundDataflow &bound,
                       const std::vector<LevelReuse> &reuse,
                       const FlatAnalysis &flat,
                       const PerformanceResult &perf,
                       const Layer &layer,
                       const AcceleratorConfig &config,
                       const EnergyModel &energy_model);

/**
 * Required L2 capacity in bytes: twice the steady working set at the
 * DRAM <-> L2 boundary (double buffering, paper Fig. 8). Shared by
 * analyzeCost (the fits_l2 requirement) and the performance engine's
 * DRAM residency correction so both see the same number.
 */
double l2BytesRequired(const BoundDataflow &bound,
                       const std::vector<LevelReuse> &reuse,
                       Count precision_bytes);

/**
 * L2 capacity available for pinning a whole tensor, given the
 * schedule's streaming working set `l2_required` (bytes). A stationary
 * tensor needs no double buffer of its own — it only has to leave room
 * for the double-buffered streaming chunks — so the bound is the more
 * generous of the classic half-capacity rule and `l2 - l2_required`.
 * A tensor whose byte volume fits under this bound is fetched from
 * DRAM once (its refetch traffic never leaves the L2).
 */
inline double
l2ResidencyBytes(double l2_bytes, double l2_required)
{
    return std::max(0.5 * l2_bytes, l2_bytes - l2_required);
}

/**
 * The one L2 residency rule every engine applies (the performance and
 * cost engines, the DSE's energy re-pricing and its residency edges,
 * and the reference simulator): a tensor is pinned in L2, and so
 * fetched from DRAM once, when the bytes of the elements it stores fit
 * under l2ResidencyBytes. A sparse tensor stores only its nonzeros, so
 * `stored` is volume x density. Monotone nondecreasing in l2_bytes.
 */
inline bool
l2Resident(double stored, Count precision_bytes, double l2_bytes,
           double l2_required)
{
    return stored * static_cast<double>(precision_bytes) <=
           l2ResidencyBytes(l2_bytes, l2_required);
}

/**
 * Register-file (L0) traffic of one PE chunk execution.
 *
 * Models one register per operand stream and walks the *partial-sum*
 * nest (N, K, C, Y', X', R, S in the PE level's directive order) with
 * the element-granularity transition rule: a stream re-reads L1 only
 * on steps where its element changed. This is the paper's implicit
 * "PE L0 buffer (Reg)" mapping level (Fig. 4), synthesized
 * automatically.
 */
struct RegisterTraffic
{
    /** L1 reads per tensor per PE chunk execution. */
    TensorMap<double> l1_reads;

    /** Partial-sum L1 writes per PE chunk execution. */
    double psum_writes = 0.0;

    /** Partial-sum L1 read-backs per PE chunk execution. */
    double psum_reads = 0.0;

    /** Unique outputs of one PE chunk execution. */
    double outputs = 0.0;
};

/**
 * Computes the register-file traffic of one PE chunk execution.
 *
 * @param pe_level The innermost bound level.
 * @param depthwise Depth-wise layer flag.
 */
RegisterTraffic registerFileTraffic(const BoundLevel &pe_level,
                                    bool depthwise);

} // namespace maestro

#endif // MAESTRO_CORE_COST_ANALYSIS_HH
