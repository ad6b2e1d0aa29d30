/**
 * @file
 * Performance analysis engine (paper Sec. 4.2 and Fig. 8).
 *
 * Walks the iteration cases of the flattened nest: every PE step
 * belongs to a case (the initial step, or "flat loop i advanced");
 * each case has its own L2->L1 distribution traffic (from the flat
 * analysis deltas) and, for level-0 loops, a DRAM<->L2 fill and drain
 * burst that pipelines behind the L2's double buffer.
 *
 * The cases, with their occurrence counts and per-tensor NoC and DRAM
 * volumes, are the layer's single traffic record (`TrafficCase`).
 * Density and L2 residency are applied once, when the record is
 * built. `runtimeAt` prices the record: double buffering overlaps
 * communication with compute, so a steady step costs max(NoC ingress,
 * compute, NoC egress), the initial step costs the sum (paper Fig. 8),
 * and the off-chip busy time bounds the total from below. The engine's
 * own runtime is `runtimeAt` at the configured NoC; the DSE prices the
 * same record across its bandwidth lanes (dse::batchRuntimes).
 */

#ifndef MAESTRO_CORE_PERFORMANCE_ANALYSIS_HH
#define MAESTRO_CORE_PERFORMANCE_ANALYSIS_HH

#include <string>
#include <vector>

#include "src/core/flat_analysis.hh"
#include "src/hw/noc.hh"
#include "src/model/layer.hh"

namespace maestro
{

/**
 * One iteration case of the flattened nest: how often it occurs and
 * what one occurrence moves, chip-wide, at the tensors' densities and
 * after the L2 residency correction.
 */
struct TrafficCase
{
    /** Occurrence count over the whole nest. */
    double advance = 0.0;

    /** NoC elements of one occurrence: ingress for weights and
     *  inputs, egress for outputs. */
    TensorMap<double> noc;

    /** DRAM elements of one occurrence: fill for weights and inputs,
     *  drain for outputs. */
    TensorMap<double> dram;

    /** NoC ingress of one occurrence (weights + inputs). */
    double
    ingress() const
    {
        return noc[TensorKind::Weight] + noc[TensorKind::Input];
    }
};

/**
 * The compute side of a layer's runtime, from the binding alone: what
 * a PE computes per flattened step, the step count, and the stall-free
 * runtime they integrate to. `runtimeAt` adds non-negative NoC and
 * DRAM terms to pe_compute plus, per case, max(., pe_compute_avg)
 * times its advance; the advances sum to total_pe_steps - 1, and
 * pe_compute >= pe_compute_avg. Every term is a whole number below
 * 2^53 and floating-point addition is monotone, so no runtime the
 * engine prices is below `compute_only_runtime`: the mapper's bound
 * prune rests on that.
 */
struct ComputeFloor
{
    /** Partial sums one PE produces per steady step. */
    double psums_per_step = 0.0;

    /** The same, averaged over every level's edge chunks. */
    double psums_avg = 0.0;

    /** Steady per-step compute delay in whole cycles (paces the
     *  initial step). */
    double pe_compute = 0.0;

    /** Edge-averaged per-step compute delay in whole cycles (steady
     *  cases). */
    double pe_compute_avg = 1.0;

    /** Flattened nest steps of one group (every level's folds and
     *  temporal steps). */
    double total_pe_steps = 1.0;

    /** pe_compute_avg x total_pe_steps: one group's runtime with no
     *  communication stall. */
    double compute_only_runtime = 0.0;
};

/**
 * The compute floor of a bound mapping: the one derivation of the
 * per-step compute delays and the step count, which
 * analyzePerformance copies into its result. A PE runs whole vector
 * operations, so both delays are whole cycles; only nonzero weight x
 * input pairs are multiplied (paper Sec. 4.4).
 */
ComputeFloor computeFloor(const BoundDataflow &bound, const Layer &layer,
                          const AcceleratorConfig &config);

/**
 * Whole-layer performance result: the traffic record, the runtime it
 * prices to, and the chip-wide totals the cost engine converts into
 * buffer accesses.
 */
struct PerformanceResult
{
    /** Total runtime in cycles. */
    double runtime = 0.0;

    /** Ideal compute-only runtime (no communication stalls; see
     *  ComputeFloor). */
    double compute_only_runtime = 0.0;

    /** Flattened nest steps (ComputeFloor::total_pe_steps). */
    double total_pe_steps = 1.0;

    /** Average simultaneously active PEs. */
    double active_pes = 1.0;

    /** Steady-state NoC bandwidth needed to never stall (elem/cyc). */
    double noc_bw_requirement = 0.0;

    /** "compute", "noc", or "offchip": dominant delay source. */
    std::string bottleneck;

    // ---- The traffic record and the terms runtimeAt prices. ----

    /** The initial step: serial fill of everything. */
    TrafficCase initial;

    /** The flat loops that advance, in flat-loop order. */
    std::vector<TrafficCase> cases;

    /** Steady per-step compute delay (ComputeFloor::pe_compute). */
    double pe_compute = 0.0;

    /** Edge-averaged per-step compute delay
     *  (ComputeFloor::pe_compute_avg). */
    double pe_compute_avg = 1.0;

    /** Off-chip delay of the initial fill (the off-chip interface is
     *  not swept, so this is NoC-independent). */
    double init_dram_delay = 0.0;

    /** Total off-chip busy time: the runtime's lower bound. */
    double offchip_busy = 0.0;

    // ---- Chip-wide traffic totals for the whole layer (weights and
    // ---- inputs at their densities). ----

    /** Elements read from L2 onto the NoC, per tensor. */
    TensorMap<double> l2_supply;

    /** Elements delivered into the PEs' L1s, per tensor. */
    TensorMap<double> l1_fill;

    /** Elements filled DRAM -> L2 (weights, inputs), after the L2
     *  capacity correction. */
    TensorMap<double> dram_fill;

    /** DRAM fill the mapping alone implies (no capacity correction). */
    TensorMap<double> dram_fill_model;

    /** Output elements arriving at L2 (after any fan-in reduction). */
    double output_commits = 0.0;

    /** Unique final outputs of the layer (drained to DRAM). */
    double final_outputs = 0.0;
};

/**
 * Prices a traffic record at a NoC: the initial step's (DRAM + NoC) +
 * compute, plus each case's max(NoC delay, steady compute) times its
 * occurrence count, bounded below by the off-chip busy time. This is
 * the engine's runtime (before group scaling) when `noc` is the
 * analyzed configuration's NoC.
 */
double runtimeAt(const PerformanceResult &perf, const NocModel &noc);

/**
 * Performance analysis engine entry point.
 *
 * @param bound Bound dataflow.
 * @param reuse Per-level reuse profiles (level 0 drives the DRAM side).
 * @param flat Flattened analysis.
 * @param layer The analyzed layer (densities, and tensor volumes for
 *        the L2 capacity correction on DRAM refetches).
 * @param config Hardware configuration.
 */
PerformanceResult analyzePerformance(const BoundDataflow &bound,
                                     const std::vector<LevelReuse> &reuse,
                                     const FlatAnalysis &flat,
                                     const Layer &layer,
                                     const AcceleratorConfig &config);

} // namespace maestro

#endif // MAESTRO_CORE_PERFORMANCE_ANALYSIS_HH
