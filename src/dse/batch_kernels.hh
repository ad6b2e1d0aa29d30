/**
 * @file
 * Batch (structure-of-arrays) evaluation kernels for the DSE fast
 * sweep.
 *
 * The sweep interior is restructured from array-of-scalar-calls to
 * SoA: the performance engine runs once per (layer, dataflow, PE
 * count) block, and its traffic record (PerformanceResult's cases,
 * src/core/performance_analysis.hh) is the only thing the NoC
 * bandwidth acts on. These kernels then evaluate whole contiguous
 * vectors of NoC bandwidths — the record priced per lane, affine
 * area/power budget cuts, and feasibility counts — with tight,
 * branch-free inner loops the compiler autovectorizes (enforced by
 * the CI codegen check).
 *
 * The budget rows the feasibility kernels take are AreaPowerModel's
 * terms (src/hw/area_power.hh), filled by the explorer once per sweep
 * (L2, bus) or per PE block (PE array + L1).
 *
 * Byte-determinism discipline: every kernel replays the scalar path's
 * exact expressions in the exact association order, so the batch sweep
 * is bit-identical to `--dse-exact` at any thread count. In
 * particular:
 *  - the budget probes add the model's terms in the association
 *    AreaPowerModel::area/power compose them,
 *  - feasibility indicators evaluate the scalar walk's
 *    `area > budget || power > budget` comparisons verbatim
 *    (bitwise-| to stay branch-free),
 *  - counts are exact small integers in double, so any summation
 *    order yields the same bytes.
 */

#ifndef MAESTRO_DSE_BATCH_KERNELS_HH
#define MAESTRO_DSE_BATCH_KERNELS_HH

#include <cstddef>

#include "src/common/math_util.hh"
#include "src/core/performance_analysis.hh"

namespace maestro
{
namespace dse
{

/**
 * runtimeAt lane by lane: out[i] = runtimeAt(perf, NocModel(
 * bandwidths[i], noc_latency)) * groups, byte-identical to running the
 * performance engine (and group scaling) at each bandwidth. The
 * bw-independent branches of NocModel::delay (volume <= 0) are hoisted
 * out of the inner loops, which are pure div/add/max over contiguous
 * doubles.
 */
void batchRuntimes(const PerformanceResult &perf,
                   const double *bandwidths, std::size_t count,
                   double noc_latency, double groups, double *out);

/**
 * Budget-feasibility counts of one (PE count, L1) row:
 * hi2[ib] = |{ i2 : !(area_l2[i2] + bus_area[ib] > area_budget ||
 *                    power_l2[i2] + bus_power[ib] > power_budget) }|.
 * Because area/power are monotone nondecreasing in the sorted L2 list,
 * the feasible set is a prefix and this indicator sum equals the
 * scalar walk's two-pointer prefix length exactly (counts are exact
 * integers in double).
 */
void batchFeasibleRow(const double *area_l2, const double *power_l2,
                      std::size_t n2, const double *bus_area,
                      const double *bus_power, std::size_t nbw,
                      double area_budget, double power_budget,
                      double *hi2);

/**
 * Fused feasibility accounting of one PE block over every (L1, L2, BW)
 * cell, exploiting monotonicity instead of evaluating each cell.
 *
 * The affine budget model separates as
 *   area(i1, i2, ib)  = (area_l1_fixed[i1] + area_l2_term[i2]) +
 *                       bus_area[ib]
 *   power(i1, i2, ib) = (power_l1[i1] + power_l2_term[i2]) +
 *                       bus_power[ib]
 * where area_l1_fixed is AreaPowerModel's peArea + l2FixedArea,
 * area_l2_term its l2CapacityArea, power_l1 its pePower,
 * power_l2_term its l2Power and the bus rows its busArea/busPower,
 * with every array non-decreasing (ascending size/bandwidth lists,
 * nonnegative cost coefficients — the same precondition the sweep's
 * prefix screening already relies on). The feasible L2 set of a
 * (i1, ib) cell is therefore a prefix whose length h is non-increasing
 * in both i1 and ib, so one descending pointer per bandwidth lane
 * recovers every prefix length in O(n1 + n2) probes instead of
 * O(n1 * n2) indicator evaluations — the probes evaluate the scalar
 * walk's `area > budget || power > budget` comparisons verbatim, so
 * the counts are byte-identical to the exhaustive sum
 * (batchFeasibleRow is kept as the reference oracle for exactly this
 * equivalence; the randomized kernel tests check it).
 *
 * Outputs, per bandwidth lane ib:
 *   evaluated[ib] = sum over i1 < n1 of h(i1, ib)
 *   valid[ib]     = sum over i1 in [lo1, n1) of max(h(i1, ib) - lo2, 0)
 *   hi2_lo1[ib]   = h(lo1, ib) if lo1 < n1, else 0
 * All counts are exact small integers in double, so the summation
 * order cannot perturb the bytes.
 */
void sweepFeasibleCounts(const double *area_l1_fixed,
                         const double *power_l1, std::size_t n1,
                         const double *area_l2_term,
                         const double *power_l2_term, std::size_t n2,
                         const double *bus_area, const double *bus_power,
                         std::size_t nbw, double area_budget,
                         double power_budget, std::size_t lo1,
                         double lo2, double *evaluated, double *valid,
                         double *hi2_lo1);

/** dst[i] += src[i] (evaluated-point accumulation). */
void batchAdd(const double *src, std::size_t count, double *dst);

/** valid[i] += max(hi2[i] - lo2, 0): the scalar walk's
 *  "if (hi2 > lo2) valid += hi2 - lo2" as a branch-free clamp
 *  (exact for integer-valued doubles). */
void batchAddValidWindow(const double *hi2, std::size_t count,
                         double lo2, double *valid);

/**
 * Branch-free scan form of the sweep's firstFeasible partition point:
 * the number of sizes with required > size. Identical to
 * std::partition_point on the ascending list (the predicate is
 * monotone, the same precondition partition_point needs).
 */
std::size_t scanFirstFeasible(const double *sizes, std::size_t count,
                              double required);

/**
 * Branch-free scan form of the sweep's firstResident partition point:
 * the number of L2 sizes where a tensor storing `volume` elements is
 * NOT resident under l2Resident, the rule energyFromSums applies.
 */
std::size_t scanFirstResident(const double *l2_sizes, std::size_t count,
                              double volume, Count precision_bytes,
                              double l2_required);

} // namespace dse
} // namespace maestro

#endif // MAESTRO_DSE_BATCH_KERNELS_HH
