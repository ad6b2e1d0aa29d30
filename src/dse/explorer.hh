/**
 * @file
 * Hardware design space exploration tool (paper Sec. 5.2, Fig. 13).
 *
 * Sweeps (PE count, L1 size, L2 size, NoC bandwidth) under area and
 * power constraints, using MAESTRO as the per-design oracle, and
 * reports throughput-, energy-, and EDP-optimal points plus the
 * throughput/energy Pareto frontier over all valid points.
 *
 * Two of the paper's engineering points are reproduced:
 *  - invalid-design skipping: at each L1 and L2 choice the tool checks
 *    the *minimum possible* area/power of all inner choices and skips
 *    the whole subtree when it already exceeds the budget, so the
 *    effective exploration rate far exceeds the evaluation rate;
 *  - designs are only valid when the swept buffers meet MAESTRO's
 *    reported buffer requirements (double-buffered working sets).
 *
 * Both strategies, their budget screens and every reported point price
 * area and power with AreaPowerModel's terms (src/hw/area_power.hh),
 * so a reported point's area and power are the bits
 * AreaPowerModel::area/power return for its configuration.
 *
 * Two sweep strategies produce byte-identical best points and point
 * accounting (enforced by tests/test_dse_equivalence.cc):
 *
 *  - The **fast sweep** (default) exploits the cost structure: runtime
 *    and all access counts depend only on (PEs, BW), so one analysis
 *    per reached (PEs, BW) pair plus a ~10-scalar dot product
 *    (energyFromSums) prices any (L1, L2) interior point. Area, power,
 *    and energy are monotone in L1 and — within a DRAM-residency
 *    regime — in L2, and capacity feasibility is a suffix of each
 *    sorted size list, so the per-pair optimum is found among at most
 *    three closed-form candidates (the smallest feasible L1 crossed
 *    with the smallest feasible L2 and the L2 residency-regime edges)
 *    instead of walking the O(|L1|*|L2|) interior. The budget-pruned
 *    point accounting is recovered exactly by a two-pointer scan over
 *    the feasibility prefixes. (PEs, BW) pairs are sharded across the
 *    thread pool and merged in deterministic pair order, so results
 *    are byte-identical for any num_threads.
 *
 *  - The **exact sweep** (DseOptions::exact) is the brute-force grid
 *    walk kept as the oracle: it evaluates every budget-feasible
 *    interior point individually, serially.
 *
 * Ties are broken identically in both strategies by the serial
 * traversal index of the point (PEs, then L1, L2, BW ascending):
 * "first encountered wins" made explicit and traversal-independent.
 *
 * The design-space value lists must be sorted ascending (DesignSpace
 * factories already are); explore() rejects unsorted lists.
 */

#ifndef MAESTRO_DSE_EXPLORER_HH
#define MAESTRO_DSE_EXPLORER_HH

#include "src/core/analyzer.hh"
#include "src/core/cost_analysis.hh"
#include "src/dse/design_space.hh"
#include "src/dse/pareto.hh"
#include "src/hw/area_power.hh"

namespace maestro
{
namespace dse
{

/** Optimization target for reporting the best design. */
enum class OptTarget : std::uint8_t
{
    Throughput,
    Energy,
    Edp,
};

/**
 * One evaluated hardware design.
 */
struct DesignPoint
{
    Count num_pes = 0;
    Count l1_bytes = 0;
    Count l2_bytes = 0;
    double noc_bandwidth = 0.0;

    double area = 0.0;        ///< mm^2
    double power = 0.0;       ///< mW
    double runtime = 0.0;     ///< cycles
    double throughput = 0.0;  ///< MACs / cycle
    double energy = 0.0;      ///< on-chip, MAC units
    double edp = 0.0;         ///< energy x runtime
    double l1_required = 0.0; ///< bytes
    double l2_required = 0.0; ///< bytes
    bool valid = false;
};

/**
 * Exploration constraints and options.
 */
struct DseOptions
{
    double area_budget_mm2 = 16.0; ///< paper: Eyeriss chip area
    double power_budget_mw = 450.0; ///< paper: Eyeriss chip power

    /** Keep every Nth valid point for scatter plotting (0 = none). */
    std::size_t sample_stride = 997;

    /**
     * Total concurrent threads for the fast sweep (<= 1 = serial):
     * (PEs, BW) pairs are sharded across the pool into per-pair slots
     * and merged serially in pair order, so results are bit-identical
     * for any value. The exact sweep is serial and ignores it.
     */
    std::size_t num_threads = 1;

    /**
     * Use the brute-force grid walk (the oracle) instead of the
     * closed-form fast sweep. Best points and point accounting are
     * byte-identical either way; only DseResult::samples follows a
     * different (documented) subsampling rule.
     */
    bool exact = false;

    /**
     * Cap on the reported Pareto frontier. When the frontier exceeds
     * this, it is decimated evenly (keeping both endpoints); 0 keeps
     * every frontier point. DseResult::frontier_size reports the
     * pre-decimation size.
     */
    std::size_t max_pareto_points = 512;
};

/**
 * Exploration statistics and results (paper Fig. 13(c)).
 */
struct DseResult
{
    double explored_points = 0.0;  ///< including skipped subtrees
    double evaluated_points = 0.0; ///< analyzer/energy evaluations
    double valid_points = 0.0;
    double evaluated_pairs = 0.0;  ///< (PEs, BW) pairs analyzed
    double seconds = 0.0;
    double rate = 0.0; ///< explored points per second

    DesignPoint best_throughput;
    DesignPoint best_energy;
    DesignPoint best_edp;

    /**
     * Subsampled valid points for scatter plots. The exact sweep keeps
     * every sample_stride'th valid grid point; the fast sweep keeps
     * every sample_stride'th per-pair energy-optimal representative
     * (it never materializes the interior); either keeps at most
     * 20000. Equivalence between the strategies is defined over
     * bests, accounting, and the frontier — not over samples.
     */
    std::vector<DesignPoint> samples;

    /**
     * Throughput/energy Pareto frontier over *all* valid points,
     * sorted by descending throughput, decimated to at most
     * DseOptions::max_pareto_points entries.
     */
    std::vector<DesignPoint> pareto;

    /** Frontier size before decimation to max_pareto_points. */
    std::size_t frontier_size = 0;
};

/**
 * The explorer: area/power and energy models plus a template
 * accelerator providing the non-swept parameters.
 */
class Explorer
{
  public:
    /**
     * @param base Template configuration (precision, support flags,
     *             vector width, clock); the four swept fields are
     *             overwritten.
     * @param area_power Area/power regression model every design is
     *             priced with.
     * @param energy Energy table.
     * @param pipeline Analysis pipeline to evaluate through; pass an
     *        existing one to share stage caches with other sweeps
     *        (a private pipeline is created when null).
     */
    explicit Explorer(
        AcceleratorConfig base,
        AreaPowerModel area_power = AreaPowerModel(),
        EnergyModel energy = EnergyModel(),
        std::shared_ptr<AnalysisPipeline> pipeline = nullptr);

    /**
     * Runs the sweep for one layer under one dataflow.
     */
    DseResult explore(const Layer &layer, const Dataflow &dataflow,
                      const DesignSpace &space,
                      const DseOptions &options = DseOptions()) const;

  private:
    AcceleratorConfig base_;
    AreaPowerModel area_power_;
    EnergyModel energy_;
    std::shared_ptr<AnalysisPipeline> pipeline_;
};

/**
 * Recomputes total energy (including capacity-aware DRAM refetch
 * energy) from a cost result's access-count sums
 * (CostResult::accessSums) for different buffer capacities, without
 * re-running the analyzer. Bigger L2s make whole tensors resident and
 * collapse their DRAM refetches — the mechanism behind the paper's
 * energy-optimized designs buying 10.6x the SRAM.
 *
 * At fixed counts, total energy is linear in the per-access
 * energies, which depend on (L1, L2) only through the sqrt capacity
 * scaling and the two per-tensor L2 residency predicates — so
 * re-pricing a design is ~10 multiply-adds instead of an analyzer
 * call; both sweep strategies price energy through this function.
 *
 * Grouped convolutions: the tensor volumes and DRAM fill model are
 * per-group (the L2 residency check is per-group, since groups run
 * back-to-back), so the derived DRAM fill is scaled by cost.groups
 * to match the all-groups dram_reads/writes the analyzer reports.
 * Volumes and fills count stored elements (nonzeros), and residency
 * follows l2Resident, as in the analyzer. So at any (L1, L2) this
 * function returns the energy an analysis at those capacities reports,
 * up to summation order (see tests).
 */
double energyFromSums(const CostResult::AccessSums &sums, Count l1_bytes,
                      Count l2_bytes, Count precision_bytes,
                      double noc_avg_hops, const EnergyModel &energy);

} // namespace dse
} // namespace maestro

#endif // MAESTRO_DSE_EXPLORER_HH
