#include "src/dse/batch_kernels.hh"

#include <algorithm>

#include "src/core/cost_analysis.hh"

namespace maestro
{
namespace dse
{

/*
 * Plain loops the compiler autovectorizes at -O2/-O3; the CI codegen
 * check (tools/check_vectorization.sh) fails the build if they stop
 * vectorizing.
 */

void
batchRuntimes(const PerformanceResult &perf, const double *bandwidths,
              std::size_t count, double noc_latency, double groups,
              double *out)
{
    // Initial step: (dram + noc) + compute in runtimeAt's association
    // order. The volume <= 0 branch of NocModel::delay is
    // bw-independent, so it hoists out of the lane loop.
    const double init_vol = perf.initial.ingress();
    if (init_vol <= 0.0) {
        const double r0 = perf.init_dram_delay + 0.0 + perf.pe_compute;
        for (std::size_t i = 0; i < count; ++i)
            out[i] = r0;
    } else {
        const double dram = perf.init_dram_delay;
        const double compute = perf.pe_compute;
        for (std::size_t i = 0; i < count; ++i)
            out[i] = dram + (init_vol / bandwidths[i] + noc_latency) +
                     compute;
    }

    const double pca = perf.pe_compute_avg;
    for (const TrafficCase &c : perf.cases) {
        const double vol =
            std::max(c.ingress(), c.noc[TensorKind::Output]);
        const double adv = c.advance;
        if (vol <= 0.0) {
            // delay(v <= 0) == 0 and pe_compute_avg >= 1, so the max
            // collapses to a bw-independent constant.
            const double term = pca * adv;
            for (std::size_t i = 0; i < count; ++i)
                out[i] += term;
            continue;
        }
        for (std::size_t i = 0; i < count; ++i) {
            const double d = vol / bandwidths[i] + noc_latency;
            out[i] += std::max(d, pca) * adv;
        }
    }

    const double busy = perf.offchip_busy;
    for (std::size_t i = 0; i < count; ++i)
        out[i] = std::max(out[i], busy) * groups;
}

void
batchFeasibleRow(const double *area_l2, const double *power_l2,
                 std::size_t n2, const double *bus_area,
                 const double *bus_power, std::size_t nbw,
                 double area_budget, double power_budget, double *hi2)
{
    for (std::size_t ib = 0; ib < nbw; ++ib)
        hi2[ib] = 0.0;
    for (std::size_t i2 = 0; i2 < n2; ++i2) {
        const double area = area_l2[i2];
        const double power = power_l2[i2];
        for (std::size_t ib = 0; ib < nbw; ++ib) {
            // The scalar walk's budget comparisons, verbatim;
            // bitwise-| keeps the loop branch-free.
            const bool infeasible =
                static_cast<int>(area + bus_area[ib] > area_budget) |
                static_cast<int>(power + bus_power[ib] > power_budget);
            hi2[ib] += infeasible ? 0.0 : 1.0;
        }
    }
}

void
sweepFeasibleCounts(const double *area_l1_fixed, const double *power_l1,
                    std::size_t n1, const double *area_l2_term,
                    const double *power_l2_term, std::size_t n2,
                    const double *bus_area, const double *bus_power,
                    std::size_t nbw, double area_budget,
                    double power_budget, std::size_t lo1, double lo2,
                    double *evaluated, double *valid, double *hi2_lo1)
{
    for (std::size_t ib = 0; ib < nbw; ++ib) {
        const double ba = bus_area[ib];
        const double bp = bus_power[ib];
        // h is the feasible-L2 prefix length; non-increasing in i1, so
        // the descents telescope: at most n1 + n2 probes per lane.
        // Once h reaches 0 every remaining row contributes 0 to all
        // three outputs, so the lane stops early; the loop is split at
        // lo1 so the valid window and the hi2_lo1 capture cost no
        // per-row compares.
        std::size_t h = n2;
        double ev = 0.0;
        double vd = 0.0;
        hi2_lo1[ib] = 0.0;
        const auto probe = [&](std::size_t i1) {
            const double a1 = area_l1_fixed[i1];
            const double p1 = power_l1[i1];
            while (h > 0 &&
                   (a1 + area_l2_term[h - 1] + ba > area_budget ||
                    p1 + power_l2_term[h - 1] + bp > power_budget))
                --h;
        };
        const std::size_t split = lo1 < n1 ? lo1 : n1;
        for (std::size_t i1 = 0; i1 < split && h > 0; ++i1) {
            probe(i1);
            ev += static_cast<double>(h);
        }
        if (h > 0 && lo1 < n1) {
            probe(lo1);
            const double hd = static_cast<double>(h);
            ev += hd;
            hi2_lo1[ib] = hd;
            vd += std::max(hd - lo2, 0.0);
            for (std::size_t i1 = lo1 + 1; i1 < n1 && h > 0; ++i1) {
                probe(i1);
                const double hd2 = static_cast<double>(h);
                ev += hd2;
                vd += std::max(hd2 - lo2, 0.0);
            }
        }
        evaluated[ib] = ev;
        valid[ib] = vd;
    }
}

void
batchAdd(const double *src, std::size_t count, double *dst)
{
    for (std::size_t i = 0; i < count; ++i)
        dst[i] += src[i];
}

void
batchAddValidWindow(const double *hi2, std::size_t count, double lo2,
                    double *valid)
{
    for (std::size_t i = 0; i < count; ++i)
        valid[i] += std::max(hi2[i] - lo2, 0.0);
}

std::size_t
scanFirstFeasible(const double *sizes, std::size_t count,
                  double required)
{
    // The predicate is monotone over the ascending list (the same
    // precondition std::partition_point needs), so the true-count IS
    // the partition point.
    std::size_t idx = 0;
    for (std::size_t i = 0; i < count; ++i)
        idx += static_cast<std::size_t>(required > sizes[i]);
    return idx;
}

std::size_t
scanFirstResident(const double *l2_sizes, std::size_t count,
                  double volume, Count precision_bytes,
                  double l2_required)
{
    std::size_t idx = 0;
    for (std::size_t i = 0; i < count; ++i)
        idx += static_cast<std::size_t>(!l2Resident(
            volume, precision_bytes, l2_sizes[i], l2_required));
    return idx;
}

} // namespace dse
} // namespace maestro
