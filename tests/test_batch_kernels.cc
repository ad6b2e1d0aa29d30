/**
 * @file
 * Byte-equivalence property tests for the DSE batch (SoA) kernels.
 *
 * The fast sweep's interior is a set of vector kernels over contiguous
 * bandwidth lanes (src/dse/batch_kernels.hh). Each kernel claims to
 * replay the scalar path's exact expressions in the exact association
 * order; these tests drive every kernel against its scalar counterpart
 * on randomized inputs — including ragged lane counts that exercise
 * the vectorized loops' scalar tails — and compare with EXPECT_EQ
 * (bitwise, no tolerances).
 *
 * The fused feasibility walk (sweepFeasibleCounts) additionally claims
 * that its two-pointer prefix recovery equals the exhaustive
 * per-cell indicator sum whenever the inputs are monotone; the
 * randomized monotone grids here check it against batchFeasibleRow,
 * the evaluated-per-cell reference oracle. The budget rows themselves
 * are AreaPowerModel's terms; a fast-sweep test checks the points it
 * reports against the model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <random>
#include <vector>

#include "src/core/cluster_analysis.hh"
#include "src/core/cost_analysis.hh"
#include "src/core/flat_analysis.hh"
#include "src/core/performance_analysis.hh"
#include "src/core/reuse_analysis.hh"
#include "src/core/tensor_analysis.hh"
#include "src/dataflows/catalog.hh"
#include "src/dse/batch_kernels.hh"
#include "src/dse/design_space.hh"
#include "src/dse/explorer.hh"
#include "src/hw/noc.hh"
#include "src/model/zoo.hh"

namespace maestro
{
namespace
{

/** Lane counts covering empty, scalar-tail, and full-SIMD shapes. */
const std::size_t kLaneCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 13, 64};

TEST(BatchKernels, BatchRuntimesMatchesScalarClosedForm)
{
    std::mt19937 rng(20260809);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_real_distribution<double> volume(0.0, 1e6);
    std::uniform_int_distribution<int> num_cases(0, 6);

    for (int trial = 0; trial < 200; ++trial) {
        PerformanceResult perf;
        perf.init_dram_delay = volume(rng);
        // Exercise the hoisted volume <= 0 branch in 1/4 of trials.
        if (trial % 4 != 0) {
            perf.initial.noc[TensorKind::Weight] = volume(rng);
            perf.initial.noc[TensorKind::Input] = volume(rng);
        }
        perf.pe_compute = volume(rng);
        perf.pe_compute_avg = 1.0 + volume(rng);
        perf.offchip_busy = volume(rng) * (trial % 3 == 0 ? 10 : 1);
        const int cases = num_cases(rng);
        for (int c = 0; c < cases; ++c) {
            TrafficCase tc;
            if (c % 3 != 2) {
                // Ingress dominates in some cases, egress in others.
                tc.noc[TensorKind::Weight] = volume(rng);
                tc.noc[TensorKind::Input] = volume(rng);
                tc.noc[TensorKind::Output] = 2.0 * volume(rng);
            }
            tc.advance = std::floor(volume(rng));
            perf.cases.push_back(tc);
        }
        const double noc_latency = std::floor(10.0 * unit(rng));
        const double groups = 1.0 + std::floor(8.0 * unit(rng));

        for (const std::size_t count : kLaneCounts) {
            std::vector<double> bw(count), out(count, -1.0);
            for (auto &b : bw)
                b = 1.0 + 63.0 * unit(rng);
            dse::batchRuntimes(perf, bw.data(), count, noc_latency,
                               groups, out.data());
            for (std::size_t i = 0; i < count; ++i) {
                const NocModel noc(bw[i], noc_latency);
                EXPECT_EQ(out[i], runtimeAt(perf, noc) * groups)
                    << "trial " << trial << " lane " << i << " of "
                    << count;
            }
        }
    }
}

TEST(BatchKernels, BatchRuntimesMatchesPerformanceEngine)
{
    // The record of one engine run must price every other bandwidth
    // exactly as re-running the engine there would.
    const Network net = zoo::vgg16();
    const Layer &layer = net.layer("CONV2");
    const TensorInfo tensors = analyzeTensors(layer);
    const AcceleratorConfig base = AcceleratorConfig::paperStudy();

    for (const char *name : {"KC-P", "YX-P", "C-P"}) {
        const Dataflow df = dataflows::byName(name);
        for (const Count pes : {Count(64), Count(256)}) {
            AcceleratorConfig cfg = base;
            cfg.num_pes = pes;
            cfg.noc = NocModel(1.0, base.noc.avgLatency());
            const BoundDataflow bound = bindDataflow(df, layer, pes);
            const auto reuse = analyzeReuse(bound, tensors, false);
            const FlatAnalysis flat =
                analyzeFlat(bound, reuse, tensors, false, cfg);
            const PerformanceResult record =
                analyzePerformance(bound, reuse, flat, layer, cfg);

            std::vector<double> bw, out;
            for (Count b = 1; b <= 17; ++b)
                bw.push_back(static_cast<double>(b));
            out.resize(bw.size());
            dse::batchRuntimes(record, bw.data(), bw.size(),
                               base.noc.avgLatency(), 1.0, out.data());
            for (std::size_t i = 0; i < bw.size(); ++i) {
                AcceleratorConfig at = cfg;
                at.noc = NocModel(bw[i], base.noc.avgLatency());
                const PerformanceResult perf =
                    analyzePerformance(bound, reuse, flat, layer, at);
                EXPECT_EQ(out[i], perf.runtime)
                    << name << " pes=" << pes << " bw=" << bw[i];
            }
        }
    }
}

TEST(BatchKernels, ProfileCaptureDoesNotPerturbResult)
{
    // The engine's runtime is runtimeAt over its own traffic record,
    // bit for bit: no second derivation of the runtime exists.
    const Network net = zoo::vgg16();
    const Layer &layer = net.layer("CONV2");
    const TensorInfo tensors = analyzeTensors(layer);
    const AcceleratorConfig base = AcceleratorConfig::paperStudy();

    for (const char *name : {"KC-P", "YX-P", "C-P"}) {
        const Dataflow df = dataflows::byName(name);
        for (const Count pes : {Count(64), Count(256)}) {
            AcceleratorConfig cfg = base;
            cfg.num_pes = pes;
            const BoundDataflow bound = bindDataflow(df, layer, pes);
            const auto reuse = analyzeReuse(bound, tensors, false);
            const FlatAnalysis flat =
                analyzeFlat(bound, reuse, tensors, false, cfg);
            const PerformanceResult perf =
                analyzePerformance(bound, reuse, flat, layer, cfg);
            EXPECT_EQ(runtimeAt(perf, cfg.noc), perf.runtime)
                << name << " pes=" << pes;
            EXPECT_FALSE(perf.cases.empty()) << name << " pes=" << pes;
            EXPECT_LE(perf.cases.size(), flat.loops.size());
        }
    }
}

TEST(BatchKernels, ScanFirstFeasibleMatchesPartitionPoint)
{
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> step(0.0, 100.0);
    for (int trial = 0; trial < 200; ++trial) {
        for (const std::size_t count : kLaneCounts) {
            std::vector<double> sizes(count);
            double acc = step(rng);
            for (auto &s : sizes)
                acc = s = acc + step(rng);
            const double required =
                count == 0 ? step(rng)
                           : sizes[trial % count] +
                                 (trial % 2 ? 0.0 : -1.0);
            const auto it = std::partition_point(
                sizes.begin(), sizes.end(),
                [&](double s) { return required > s; });
            EXPECT_EQ(dse::scanFirstFeasible(sizes.data(), count,
                                             required),
                      static_cast<std::size_t>(it - sizes.begin()));
        }
    }
}

TEST(BatchKernels, ScanFirstResidentMatchesPartitionPoint)
{
    std::mt19937 rng(11);
    std::uniform_real_distribution<double> step(1.0, 1e5);
    std::uniform_real_distribution<double> vol(0.0, 1e6);
    for (int trial = 0; trial < 200; ++trial) {
        for (const std::size_t count : kLaneCounts) {
            std::vector<double> l2(count);
            double acc = step(rng);
            for (auto &s : l2)
                acc = s = acc + step(rng);
            const double volume = vol(rng);
            const double l2_required = vol(rng);
            const Count precision = 1 + (trial % 4);
            const auto it = std::partition_point(
                l2.begin(), l2.end(), [&](double s) {
                    return !(volume * static_cast<double>(precision) <=
                             l2ResidencyBytes(s, l2_required));
                });
            EXPECT_EQ(dse::scanFirstResident(l2.data(), count, volume,
                                             precision, l2_required),
                      static_cast<std::size_t>(it - l2.begin()));
        }
    }
}

TEST(BatchKernels, BatchFeasibleRowCountsEveryCell)
{
    std::mt19937 rng(13);
    std::uniform_real_distribution<double> unit(0.0, 10.0);
    for (int trial = 0; trial < 100; ++trial) {
        const std::size_t n2 = 1 + (trial % 7);
        for (const std::size_t nbw : kLaneCounts) {
            std::vector<double> area(n2), power(n2);
            std::vector<double> ba(nbw), bp(nbw), hi2(nbw, -1.0);
            for (std::size_t i = 0; i < n2; ++i) {
                area[i] = unit(rng);
                power[i] = unit(rng);
            }
            for (std::size_t i = 0; i < nbw; ++i) {
                ba[i] = unit(rng);
                bp[i] = unit(rng);
            }
            const double area_budget = unit(rng);
            const double power_budget = unit(rng);
            dse::batchFeasibleRow(area.data(), power.data(), n2,
                                  ba.data(), bp.data(), nbw,
                                  area_budget, power_budget,
                                  hi2.data());
            for (std::size_t ib = 0; ib < nbw; ++ib) {
                double expect = 0.0;
                for (std::size_t i2 = 0; i2 < n2; ++i2) {
                    if (!(area[i2] + ba[ib] > area_budget ||
                          power[i2] + bp[ib] > power_budget))
                        expect += 1.0;
                }
                EXPECT_EQ(hi2[ib], expect);
            }
        }
    }
}

/** Ascending array of `count` nonnegative random values. */
std::vector<double>
ascending(std::mt19937 &rng, std::size_t count, double lo, double hi)
{
    std::uniform_real_distribution<double> step(lo, hi);
    std::vector<double> out(count);
    double acc = 0.0;
    for (auto &v : out)
        acc = v = acc + step(rng);
    return out;
}

TEST(BatchKernels, SweepFeasibleCountsMatchesExhaustiveReference)
{
    // The fused two-pointer walk vs the evaluated-per-cell oracle
    // (batchFeasibleRow accumulated row by row, exactly like the
    // pre-fusion sweep) on randomized monotone grids.
    std::mt19937 rng(20260810);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int trial = 0; trial < 150; ++trial) {
        const std::size_t n1 = 1 + (trial % 9);
        const std::size_t n2 = 1 + (trial % 5);
        for (const std::size_t nbw : kLaneCounts) {
            if (nbw == 0)
                continue;
            const auto af = ascending(rng, n1, 0.0, 3.0);
            const auto pf = ascending(rng, n1, 0.0, 30.0);
            const auto aterm = ascending(rng, n2, 0.0, 3.0);
            const auto pterm = ascending(rng, n2, 0.0, 30.0);
            const auto ba = ascending(rng, nbw, 0.0, 0.5);
            const auto bp = ascending(rng, nbw, 0.0, 5.0);
            // Budgets spanning none-feasible to all-feasible.
            const double area_budget = 20.0 * unit(rng) * n1;
            const double power_budget = 200.0 * unit(rng) * n1;
            // lo1 == n1 (never valid) must be exercised too.
            const std::size_t lo1 =
                static_cast<std::size_t>((n1 + 1) * unit(rng));
            const double lo2 =
                std::floor((n2 + 1) * unit(rng));

            std::vector<double> evaluated(nbw, -1.0), valid(nbw, -1.0);
            std::vector<double> hi2_lo1(nbw, -1.0);
            dse::sweepFeasibleCounts(
                af.data(), pf.data(), n1, aterm.data(), pterm.data(),
                n2, ba.data(), bp.data(), nbw, area_budget,
                power_budget, lo1, lo2, evaluated.data(), valid.data(),
                hi2_lo1.data());

            std::vector<double> ev_ref(nbw, 0.0), vd_ref(nbw, 0.0);
            std::vector<double> hi2_lo1_ref(nbw, 0.0), row(nbw, 0.0);
            std::vector<double> area_row(n2), power_row(n2);
            for (std::size_t i1 = 0; i1 < n1; ++i1) {
                for (std::size_t i2 = 0; i2 < n2; ++i2) {
                    area_row[i2] = af[i1] + aterm[i2];
                    power_row[i2] = pf[i1] + pterm[i2];
                }
                dse::batchFeasibleRow(area_row.data(),
                                      power_row.data(), n2, ba.data(),
                                      bp.data(), nbw, area_budget,
                                      power_budget, row.data());
                dse::batchAdd(row.data(), nbw, ev_ref.data());
                if (i1 == lo1)
                    std::copy_n(row.data(), nbw, hi2_lo1_ref.data());
                if (i1 >= lo1)
                    dse::batchAddValidWindow(row.data(), nbw, lo2,
                                             vd_ref.data());
            }
            for (std::size_t ib = 0; ib < nbw; ++ib) {
                EXPECT_EQ(evaluated[ib], ev_ref[ib])
                    << "trial " << trial << " nbw " << nbw << " lane "
                    << ib;
                EXPECT_EQ(valid[ib], vd_ref[ib])
                    << "trial " << trial << " nbw " << nbw << " lane "
                    << ib;
                EXPECT_EQ(hi2_lo1[ib], hi2_lo1_ref[ib])
                    << "trial " << trial << " nbw " << nbw << " lane "
                    << ib;
            }
        }
    }
}

TEST(BatchKernels, BatchBusTermsKeepScalarAssociation)
{
    // The fast sweep's budget rows are AreaPowerModel's terms: every
    // point it reports has exactly the area and power the model gives
    // its configuration, for any coefficients, vector width and
    // budgets.
    const Network net = zoo::vgg16();
    const Layer &layer = net.layer("CONV2");
    const Dataflow df = dataflows::byName("KC-P");
    dse::DesignSpace space;
    space.pe_counts = {16, 64, 168, 256};
    space.l1_sizes = {64, 512, 2048, 16384};
    space.l2_sizes = {16384, 110592, 524288, 2097152};
    space.noc_bandwidths = {1.0, 2.5, 7.25, 16.0, 33.0, 64.0};

    std::mt19937 rng(17);
    std::uniform_real_distribution<double> scale(0.25, 4.0);
    std::uniform_real_distribution<double> slack(0.3, 3.0);
    std::uniform_int_distribution<int> width(1, 4);
    std::size_t checked = 0;
    for (int trial = 0; trial < 12; ++trial) {
        AreaPowerCoefficients co;
        for (double *c :
             {&co.mac_area, &co.sram_area_per_kib, &co.sram_area_fixed,
              &co.bus_area_per_lane, &co.arbiter_area_coeff,
              &co.mac_power, &co.sram_power_per_kib,
              &co.sram_power_fixed, &co.bus_power_per_lane,
              &co.arbiter_power_coeff})
            *c *= scale(rng);
        const AreaPowerModel model(co);
        AcceleratorConfig base = AcceleratorConfig::paperStudy();
        base.vector_width = width(rng);

        dse::DseOptions options;
        options.area_budget_mm2 = model.area(base) * slack(rng);
        options.power_budget_mw = model.power(base) * slack(rng);
        options.sample_stride = 1;
        options.max_pareto_points = 0;
        const dse::Explorer explorer(base, model);
        const dse::DseResult r =
            explorer.explore(layer, df, space, options);

        std::vector<dse::DesignPoint> points = r.pareto;
        points.insert(points.end(), r.samples.begin(), r.samples.end());
        points.push_back(r.best_throughput);
        points.push_back(r.best_energy);
        points.push_back(r.best_edp);
        for (const dse::DesignPoint &p : points) {
            if (!p.valid)
                continue;
            AcceleratorConfig cfg = base;
            cfg.num_pes = p.num_pes;
            cfg.l1_bytes = p.l1_bytes;
            cfg.l2_bytes = p.l2_bytes;
            cfg.noc = NocModel(p.noc_bandwidth, base.noc.avgLatency());
            EXPECT_EQ(p.area, model.area(cfg))
                << "trial " << trial << ": " << p.num_pes << " PEs, L1 "
                << p.l1_bytes << ", L2 " << p.l2_bytes << ", BW "
                << p.noc_bandwidth;
            EXPECT_EQ(p.power, model.power(cfg))
                << "trial " << trial << ": " << p.num_pes << " PEs, L1 "
                << p.l1_bytes << ", L2 " << p.l2_bytes << ", BW "
                << p.noc_bandwidth;
            ++checked;
        }
    }
    EXPECT_GT(checked, 100u);
}

TEST(BatchKernels, ExplorerFastSweepThreadCountInvariance)
{
    // End-to-end: the batch sweep's merged result is byte-identical at
    // 1 and 4 threads (block sharding + serial pair-order merge).
    const Network net = zoo::vgg16();
    const Layer &layer = net.layer("CONV2");
    const dse::Explorer explorer(AcceleratorConfig::paperStudy());
    dse::DesignSpace space;
    space.pe_counts = {32, 64, 128, 256};
    space.l1_sizes = {256, 1024, 4096, 16384};
    space.l2_sizes = {65536, 262144, 1048576};
    for (Count bw = 1; bw <= 13; ++bw)
        space.noc_bandwidths.push_back(static_cast<double>(bw));

    for (const char *name : {"KC-P", "YX-P"}) {
        const Dataflow df = dataflows::byName(name);
        dse::DseOptions opt1;
        opt1.exact = false;
        opt1.num_threads = 1;
        dse::DseOptions opt4 = opt1;
        opt4.num_threads = 4;
        const dse::DseResult r1 =
            explorer.explore(layer, df, space, opt1);
        const dse::DseResult r4 =
            explorer.explore(layer, df, space, opt4);
        EXPECT_EQ(r1.evaluated_points, r4.evaluated_points);
        EXPECT_EQ(r1.valid_points, r4.valid_points);
        EXPECT_EQ(r1.explored_points, r4.explored_points);
        EXPECT_EQ(r1.best_energy.energy, r4.best_energy.energy);
        EXPECT_EQ(r1.best_energy.edp, r4.best_energy.edp);
        EXPECT_EQ(r1.best_edp.edp, r4.best_edp.edp);
        EXPECT_EQ(r1.best_throughput.throughput,
                  r4.best_throughput.throughput);
        ASSERT_EQ(r1.pareto.size(), r4.pareto.size());
        for (std::size_t i = 0; i < r1.pareto.size(); ++i) {
            EXPECT_EQ(r1.pareto[i].energy, r4.pareto[i].energy);
            EXPECT_EQ(r1.pareto[i].throughput,
                      r4.pareto[i].throughput);
            EXPECT_EQ(r1.pareto[i].num_pes, r4.pareto[i].num_pes);
        }
    }
}

} // namespace
} // namespace maestro
