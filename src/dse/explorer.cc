#include "src/dse/explorer.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <utility>

#include "src/common/error.hh"
#include "src/common/thread_pool.hh"
#include "src/core/cluster_analysis.hh"
#include "src/core/flat_analysis.hh"
#include "src/core/performance_analysis.hh"
#include "src/core/pipeline.hh"
#include "src/core/reuse_analysis.hh"
#include "src/core/tensor_analysis.hh"
#include "src/dse/batch_kernels.hh"
#include "src/obs/obs.hh"
#include "src/obs/shared_metrics.hh"

namespace maestro
{
namespace dse
{

namespace
{

/** Cap on the scatter samples one explore() call keeps. */
constexpr std::size_t kMaxSamples = 20000;

/** Span site of one whole explore() call. */
constexpr obs::Site kExploreSite{"dse.explore", "dse",
                                 "maestro_dse_explore_us"};

/** Span site of one PE-block artifact shard (bind/reuse/flat). */
constexpr obs::Site kShardSite{"dse.shard", "dse", "maestro_dse_shard_us"};

/** Span site of one (PEs, BW) pair-outcome shard. */
constexpr obs::Site kPairsSite{"dse.pairs", "dse", "maestro_dse_pairs_us"};

/** Bumps the per-sweep counters (cheap: once per explore). */
void
countSweep(const DseResult &result)
{
    if ((obs::mode() & obs::kTiming) == 0)
        return;
    obs::addCounter("maestro_dse_sweeps_total", 1);
    obs::addCounter("maestro_dse_explored_points_total",
                    static_cast<std::uint64_t>(result.explored_points));
    obs::addCounter("maestro_dse_valid_points_total",
                    static_cast<std::uint64_t>(result.valid_points));
}

/**
 * Serial traversal index of one grid point: the position the exact
 * pes -> l1 -> l2 -> bw loop nest visits it at. Used as the total-order
 * tiebreak that makes "first encountered wins" explicit and therefore
 * independent of traversal strategy and thread count.
 */
std::uint64_t
orderIndex(std::size_t pes_idx, std::size_t i1, std::size_t i2,
           std::size_t ibw, const DesignSpace &space)
{
    return ((static_cast<std::uint64_t>(pes_idx) *
                 space.l1_sizes.size() +
             i1) *
                space.l2_sizes.size() +
            i2) *
               space.noc_bandwidths.size() +
           ibw;
}

/** The per-(PEs, BW) analysis scalars that price any interior point. */
struct PairScalars
{
    double runtime = 0.0;
    double total_macs = 0.0;
    double l1_required = 0.0;
    double l2_required = 0.0;
    CostResult::AccessSums sums;
};

PairScalars
pairScalars(const LayerAnalysis &analysis)
{
    PairScalars s;
    s.runtime = analysis.runtime;
    s.total_macs = analysis.total_macs;
    s.l1_required = analysis.cost.l1_bytes_required;
    s.l2_required = analysis.cost.l2_bytes_required;
    s.sums = analysis.cost.accessSums();
    return s;
}

/**
 * Prices one grid point. Every DesignPoint either sweep strategy
 * reports is built here or from the same AreaPowerModel terms, so
 * their bytes agree.
 */
DesignPoint
buildPoint(const DesignSpace &space, std::size_t pes_idx,
           std::size_t i1, std::size_t i2, std::size_t ibw,
           const PairScalars &s, const AreaPowerModel &area_power,
           const AcceleratorConfig &base, const EnergyModel &energy)
{
    AcceleratorConfig cfg = base;
    cfg.num_pes = space.pe_counts[pes_idx];
    cfg.l1_bytes = space.l1_sizes[i1];
    cfg.l2_bytes = space.l2_sizes[i2];
    cfg.noc = NocModel(space.noc_bandwidths[ibw], base.noc.avgLatency());

    DesignPoint point;
    point.num_pes = cfg.num_pes;
    point.l1_bytes = cfg.l1_bytes;
    point.l2_bytes = cfg.l2_bytes;
    point.noc_bandwidth = space.noc_bandwidths[ibw];
    point.area = area_power.area(cfg);
    point.power = area_power.power(cfg);
    point.runtime = s.runtime;
    point.throughput = s.total_macs / s.runtime;
    point.energy = energyFromSums(s.sums, cfg.l1_bytes, cfg.l2_bytes,
                                  base.precision_bytes,
                                  base.noc.avgLatency(), energy);
    point.edp = point.energy * point.runtime;
    point.l1_required = s.l1_required;
    point.l2_required = s.l2_required;
    point.valid = true;
    return point;
}

/**
 * Strict preference of `cand` over `best` for one target: the serial
 * sweep's update rule with "first encountered wins" made explicit — on
 * a full objective tie the smaller traversal index wins, which is
 * exactly what an in-order serial walk does implicitly.
 */
bool
betterPoint(const DesignPoint &cand, std::uint64_t cand_order,
            const DesignPoint &best, std::uint64_t best_order,
            OptTarget target)
{
    if (!best.valid)
        return true;
    switch (target) {
      case OptTarget::Throughput:
        if (cand.throughput != best.throughput)
            return cand.throughput > best.throughput;
        if (cand.energy != best.energy)
            return cand.energy < best.energy;
        return cand_order < best_order;
      case OptTarget::Energy:
        if (cand.energy != best.energy)
            return cand.energy < best.energy;
        if (cand.throughput != best.throughput)
            return cand.throughput > best.throughput;
        return cand_order < best_order;
      case OptTarget::Edp:
        if (cand.edp != best.edp)
            return cand.edp < best.edp;
        return cand_order < best_order;
    }
    return false;
}

/** The three running optima plus their traversal-index tiebreaks. */
struct BestSet
{
    DesignPoint throughput, energy, edp;
    std::uint64_t throughput_order = 0;
    std::uint64_t energy_order = 0;
    std::uint64_t edp_order = 0;

    void
    offer(const DesignPoint &point, std::uint64_t order)
    {
        if (betterPoint(point, order, throughput, throughput_order,
                        OptTarget::Throughput)) {
            throughput = point;
            throughput_order = order;
        }
        if (betterPoint(point, order, energy, energy_order,
                        OptTarget::Energy)) {
            energy = point;
            energy_order = order;
        }
        if (betterPoint(point, order, edp, edp_order, OptTarget::Edp)) {
            edp = point;
            edp_order = order;
        }
    }
};

} // namespace

double
energyFromSums(const CostResult::AccessSums &sums, Count l1_bytes,
               Count l2_bytes, Count precision_bytes,
               double noc_avg_hops, const EnergyModel &energy)
{
    // Capacity-aware DRAM fill: volumes and fills are per-group stored
    // elements; the residency decision is made per group and the
    // resulting fill scaled to all groups.
    const auto fillAt = [&](double volume, double fill) {
        return l2Resident(volume, precision_bytes,
                          static_cast<double>(l2_bytes),
                          sums.l2_required)
                   ? std::min(fill, volume)
                   : fill;
    };
    const double fill =
        sums.groups * fillAt(sums.weight_volume, sums.weight_fill) +
        sums.groups * fillAt(sums.input_volume, sums.input_fill);

    double total = sums.total_macs * energy.macEnergy();
    total += sums.l1_reads * energy.l1ReadEnergy(l1_bytes);
    total += sums.l1_writes * energy.l1WriteEnergy(l1_bytes);
    total += sums.l2_reads * energy.l2ReadEnergy(l2_bytes);
    // Each filled element is one L2 write and one DRAM read.
    total += (sums.l2_writes + fill) * energy.l2WriteEnergy(l2_bytes);
    total += sums.noc_elements * energy.nocEnergy(noc_avg_hops);
    total += (sums.output_dram_writes + fill) * energy.dramEnergy();
    return total;
}

Explorer::Explorer(AcceleratorConfig base, AreaPowerModel area_power,
                   EnergyModel energy,
                   std::shared_ptr<AnalysisPipeline> pipeline)
    : base_(std::move(base)), area_power_(area_power),
      energy_(std::move(energy)),
      pipeline_(pipeline ? std::move(pipeline)
                         : std::make_shared<AnalysisPipeline>())
{
    base_.validate();
}

DseResult
Explorer::explore(const Layer &layer, const Dataflow &dataflow,
                  const DesignSpace &space,
                  const DseOptions &options) const
{
    fatalIf(space.pe_counts.empty() || space.l1_sizes.empty() ||
                space.l2_sizes.empty() || space.noc_bandwidths.empty(),
            "explore: empty design space");
    fatalIf(!std::is_sorted(space.pe_counts.begin(),
                            space.pe_counts.end()) ||
                !std::is_sorted(space.l1_sizes.begin(),
                                space.l1_sizes.end()) ||
                !std::is_sorted(space.l2_sizes.begin(),
                                space.l2_sizes.end()) ||
                !std::is_sorted(space.noc_bandwidths.begin(),
                                space.noc_bandwidths.end()),
            "explore: design-space value lists must be sorted "
            "ascending");

    const auto t0 = std::chrono::steady_clock::now();
    obs::ScopedSpan explore_span(kExploreSite);
    DseResult result;

    const AreaPowerModel &ap = area_power_;
    const Count vw = base_.vector_width;
    const double clock = base_.clock_ghz;
    const double min_bw = space.noc_bandwidths.front();
    const std::size_t n1 = space.l1_sizes.size();
    const std::size_t n2 = space.l2_sizes.size();
    const std::size_t nbw = space.noc_bandwidths.size();

    // The subtree screen: the area and power of a (PEs, L1) corner's
    // cheapest design, at the first entry of the sorted L2 and BW lists,
    // summed in area()'s and power()'s association. Every other design
    // of the subtree only adds to it, so the screen is exact.
    const Count min_l2 = space.l2_sizes.front();
    const auto screenArea = [&](double area_l1) {
        return area_l1 + ap.l2FixedArea() + ap.l2CapacityArea(min_l2) +
               ap.busArea(min_bw);
    };
    const auto screenPower = [&](double power_l1) {
        return power_l1 + ap.l2Power(min_l2, clock) +
               ap.busPower(min_bw, clock);
    };

    auto makeConfig = [&](Count pes, double bw) {
        AcceleratorConfig cfg = base_;
        cfg.num_pes = pes;
        cfg.noc = NocModel(bw, base_.noc.avgLatency());
        return cfg;
    };

    BestSet bests;
    ParetoAccumulator frontier;

    // Rebuilds the reported frontier points by decoding each survivor's
    // traversal index and re-pricing through buildPoint; scalarsAt maps
    // a (PEs, BW) pair to its analysis scalars.
    auto finishFrontier = [&](auto &&scalarsAt) {
        result.frontier_size = frontier.size();
        for (const FrontierPoint &fp :
             frontier.finish(options.max_pareto_points)) {
            std::uint64_t rest = fp.order;
            const std::size_t ibw = rest % nbw;
            rest /= nbw;
            const std::size_t i2 = rest % n2;
            rest /= n2;
            const std::size_t i1 = rest % n1;
            rest /= n1;
            const std::size_t pes_idx = static_cast<std::size_t>(rest);
            result.pareto.push_back(
                buildPoint(space, pes_idx, i1, i2, ibw,
                           scalarsAt(pes_idx, ibw), ap, base_, energy_));
        }
    };

    if (options.exact) {
        // ------------------------------------------------------------
        // Exact sweep: the brute-force grid walk, kept as the oracle.
        // It is serial: its time is the walk, not the analyses.
        // ------------------------------------------------------------
        const double inner_per_l1 =
            static_cast<double>(n2) * static_cast<double>(nbw);
        const double inner_per_l2 = static_cast<double>(nbw);

        // Runtime/energy counts depend only on (PEs, bandwidth); the
        // local map avoids re-fetching from the pipeline inside the
        // loop nest. Keyed on the bandwidth's bit pattern: quantizing
        // (e.g. to 1/1024ths) would alias close bandwidths to one
        // analysis.
        std::map<std::pair<Count, std::uint64_t>, LayerAnalysis> cache;
        auto evaluate = [&](Count pes,
                            double bw) -> const LayerAnalysis & {
            const auto key = std::make_pair(
                pes, std::bit_cast<std::uint64_t>(bw));
            auto it = cache.find(key);
            if (it == cache.end()) {
                Analyzer analyzer(makeConfig(pes, bw), energy_,
                                  pipeline_);
                it = cache.emplace(
                             key, analyzer.analyzeLayer(layer, dataflow))
                         .first;
            }
            return it->second;
        };

        std::size_t sample_counter = 0;

        for (std::size_t pes_idx = 0; pes_idx < space.pe_counts.size();
             ++pes_idx) {
            const Count pes = space.pe_counts[pes_idx];
            for (std::size_t i1 = 0; i1 < n1; ++i1) {
                const Count l1 = space.l1_sizes[i1];
                const double area_l1 = ap.peArea(pes, vw, l1);
                const double power_l1 = ap.pePower(pes, vw, l1, clock);
                if (screenArea(area_l1) > options.area_budget_mm2 ||
                    screenPower(power_l1) > options.power_budget_mw) {
                    // Every inner choice only adds area/power: skip the
                    // whole subtree (counted as explored, per the
                    // paper's method).
                    result.explored_points += inner_per_l1;
                    continue;
                }

                for (std::size_t i2 = 0; i2 < n2; ++i2) {
                    const Count l2 = space.l2_sizes[i2];
                    const double area_l2 = area_l1 + ap.l2FixedArea() +
                                           ap.l2CapacityArea(l2);
                    const double power_l2 =
                        power_l1 + ap.l2Power(l2, clock);
                    if (area_l2 + ap.busArea(min_bw) >
                            options.area_budget_mm2 ||
                        power_l2 + ap.busPower(min_bw, clock) >
                            options.power_budget_mw) {
                        result.explored_points += inner_per_l2;
                        continue;
                    }

                    for (std::size_t ibw = 0; ibw < nbw; ++ibw) {
                        const double bw = space.noc_bandwidths[ibw];
                        result.explored_points += 1.0;
                        if (area_l2 + ap.busArea(bw) >
                                options.area_budget_mm2 ||
                            power_l2 + ap.busPower(bw, clock) >
                                options.power_budget_mw) {
                            continue;
                        }

                        const LayerAnalysis &eval = evaluate(pes, bw);
                        result.evaluated_points += 1.0;
                        if (eval.cost.l1_bytes_required >
                                static_cast<double>(l1) ||
                            eval.cost.l2_bytes_required >
                                static_cast<double>(l2)) {
                            continue;
                        }

                        const DesignPoint point = buildPoint(
                            space, pes_idx, i1, i2, ibw,
                            pairScalars(eval), ap, base_, energy_);
                        const std::uint64_t order =
                            orderIndex(pes_idx, i1, i2, ibw, space);

                        result.valid_points += 1.0;
                        bests.offer(point, order);
                        frontier.insert(
                            {point.throughput, point.energy, order});

                        if (options.sample_stride > 0 &&
                            result.samples.size() < kMaxSamples &&
                            (sample_counter++ %
                             options.sample_stride) == 0) {
                            result.samples.push_back(point);
                        }
                    }
                }
            }
        }

        result.evaluated_pairs = static_cast<double>(cache.size());
        finishFrontier([&](std::size_t pes_idx, std::size_t ibw) {
            const auto key = std::make_pair(
                space.pe_counts[pes_idx],
                std::bit_cast<std::uint64_t>(
                    space.noc_bandwidths[ibw]));
            return pairScalars(cache.at(key));
        });
    } else {
        // ------------------------------------------------------------
        // Fast sweep: one analysis per reached (PEs, BW) pair, closed-
        // form interior selection, sharded across the thread pool.
        // ------------------------------------------------------------

        /** One PE count that reaches analysis, with its budget
         *  feasibility prefixes. */
        struct PeBlock
        {
            std::size_t pes_idx = 0;
            Count pes = 0;
            std::size_t a_hi = 0;       ///< L1 indices passing (a)
            std::size_t bw_reached = 0; ///< BW prefix with any (c) pass
        };

        // Screening: pure budget arithmetic, no analysis. The checks
        // are the exact walk's (a)/(c) checks verbatim; since area and
        // power are monotone along each axis, the pass sets are
        // prefixes of the ascending lists.
        std::vector<PeBlock> blocks;
        for (std::size_t pes_idx = 0; pes_idx < space.pe_counts.size();
             ++pes_idx) {
            const Count pes = space.pe_counts[pes_idx];
            PeBlock blk;
            blk.pes_idx = pes_idx;
            blk.pes = pes;
            while (blk.a_hi < n1) {
                const Count l1 = space.l1_sizes[blk.a_hi];
                if (screenArea(ap.peArea(pes, vw, l1)) >
                        options.area_budget_mm2 ||
                    screenPower(ap.pePower(pes, vw, l1, clock)) >
                        options.power_budget_mw) {
                    break;
                }
                ++blk.a_hi;
            }
            if (blk.a_hi == 0)
                continue;
            // A (PEs, BW) pair reaches analysis iff the cheapest
            // corner (smallest L1, smallest L2) passes the final
            // budget check at that bandwidth.
            const double area_l2_min =
                ap.peArea(pes, vw, space.l1_sizes.front()) +
                ap.l2FixedArea() +
                ap.l2CapacityArea(space.l2_sizes.front());
            const double power_l2_min =
                ap.pePower(pes, vw, space.l1_sizes.front(), clock) +
                ap.l2Power(space.l2_sizes.front(), clock);
            while (blk.bw_reached < nbw) {
                const double bw = space.noc_bandwidths[blk.bw_reached];
                if (area_l2_min + ap.busArea(bw) >
                        options.area_budget_mm2 ||
                    power_l2_min + ap.busPower(bw, clock) >
                        options.power_budget_mw) {
                    break;
                }
                ++blk.bw_reached;
            }
            if (blk.bw_reached == 0)
                continue;
            blocks.push_back(blk);
        }

        // Pair enumeration in the exact walk's first-evaluation order
        // (PEs ascending, bandwidth ascending within the reached
        // prefix) — the merge below reports errors in this order, so
        // failures surface identically to the serial walk.
        struct PairRef
        {
            std::size_t block = 0;
            std::size_t ibw = 0;
        };
        std::vector<PairRef> pair_refs;
        // (pes_idx, ibw) -> slot, for frontier decode. Flat array: the
        // decode happens once per Pareto point, but building a node-
        // based map for every pair showed up in the sweep profile.
        std::vector<std::size_t> pair_slot(
            space.pe_counts.size() * nbw,
            std::numeric_limits<std::size_t>::max());
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            for (std::size_t ibw = 0; ibw < blocks[b].bw_reached;
                 ++ibw) {
                pair_slot[blocks[b].pes_idx * nbw + ibw] =
                    pair_refs.size();
                pair_refs.push_back({b, ibw});
            }
        }

        // Layer-level stages run once; an error here surfaces at the
        // first reached pair (after its config check), matching the
        // serial walk's per-pair validate -> analyze sequence.
        std::string layer_error;
        bool layer_ok = true;
        TensorInfo tensors;
        const bool depthwise = layer.type() == OpType::DepthwiseConv;
        if (!pair_refs.empty()) {
            try {
                layer.validate();
                tensors = analyzeTensors(layer);
            } catch (const std::exception &e) {
                layer_ok = false;
                layer_error = e.what();
            }
        }

        /** One full engine run per block: everything it yields
         *  depends only on the PE count (and support flags). The NoC
         *  bandwidth enters the model solely where runtimeAt prices
         *  the traffic record, so the whole BW axis shares one
         *  analysis (the batch-kernel restructuring; see
         *  src/dse/batch_kernels.hh). */
        struct PeArtifacts
        {
            PairScalars scalars;    ///< bw-independent but runtime
            PerformanceResult perf; ///< the traffic record
            bool ok = false;
            std::string error;
        };
        std::vector<PeArtifacts> artifacts(blocks.size());
        if (layer_ok && !pair_refs.empty()) {
            ThreadPool::runChunked(
                options.num_threads, blocks.size(),
                [&](std::size_t begin, std::size_t end) {
                    obs::ScopedSpan span(kShardSite);
                    span.arg("begin", begin);
                    span.arg("end", end);
                    for (std::size_t b = begin; b < end; ++b) {
                        PeArtifacts &art = artifacts[b];
                        try {
                            const AcceleratorConfig cfg =
                                makeConfig(blocks[b].pes, min_bw);
                            const BoundDataflow bound = bindDataflow(
                                dataflow, layer, cfg.num_pes);
                            const std::vector<LevelReuse> reuse =
                                analyzeReuse(bound, tensors, depthwise);
                            const FlatAnalysis flat = analyzeFlat(
                                bound, reuse, tensors, depthwise, cfg);
                            PerformanceResult perf = analyzePerformance(
                                bound, reuse, flat, layer, cfg);
                            CostResult cost =
                                analyzeCost(bound, reuse, flat, perf,
                                            layer, cfg, energy_);
                            LayerAnalysis analysis =
                                assembleLayerAnalysis(std::move(perf),
                                                      std::move(cost),
                                                      layer, cfg);
                            art.scalars = pairScalars(analysis);
                            art.perf = std::move(analysis.perf);
                            art.ok = true;
                        } catch (const std::exception &e) {
                            art.error = e.what();
                        }
                    }
                });
        }

        /** Everything one pair contributes to the merged result. The
         *  pair's full PairScalars are NOT stored here: they equal the
         *  block's bw-independent scalars plus this runtime, and the
         *  frontier decode rebuilds them on demand — keeping the slot
         *  array (one per pair) small enough that its construction
         *  doesn't show in the sweep profile. */
        struct PairOutcome
        {
            std::string error;
            double evaluated = 0.0;
            double valid = 0.0;
            double runtime = 0.0;
            bool has_valid = false;
            DesignPoint cand_energy; ///< pair's (energy, order) lex-min
            DesignPoint cand_edp;    ///< pair's (edp, order) lex-min
            std::uint64_t energy_order = 0;
            std::uint64_t edp_order = 0;
        };
        // ---- Sweep-level SoA invariants for the batch kernels. ----
        const double groups_d = static_cast<double>(layer.groupsVal());
        std::vector<double> l1_sizes_d(n1), l2_sizes_d(n2);
        for (std::size_t i = 0; i < n1; ++i)
            l1_sizes_d[i] = static_cast<double>(space.l1_sizes[i]);
        for (std::size_t i = 0; i < n2; ++i)
            l2_sizes_d[i] = static_cast<double>(space.l2_sizes[i]);
        // The budget rows of the model's terms, split so the
        // feasibility kernel probes ((PE array + L1 + L2 fixed) + L2
        // capacity) + bus for area and ((PE array + L1) + L2) + bus for
        // power, the association AreaPowerModel::area/power compose.
        std::vector<double> area_l2_term(n2), power_l2_term(n2);
        for (std::size_t i2 = 0; i2 < n2; ++i2) {
            area_l2_term[i2] = ap.l2CapacityArea(space.l2_sizes[i2]);
            power_l2_term[i2] = ap.l2Power(space.l2_sizes[i2], clock);
        }
        std::vector<double> bus_area(nbw), bus_power(nbw);
        for (std::size_t ib = 0; ib < nbw; ++ib) {
            bus_area[ib] = ap.busArea(space.noc_bandwidths[ib]);
            bus_power[ib] = ap.busPower(space.noc_bandwidths[ib], clock);
        }

        // Pair slots of one block are contiguous (pair_refs was built
        // block-major), so sharding over blocks lets each worker write
        // a disjoint contiguous slot range; the serial merge below
        // still consumes the slots in pair order, keeping the result
        // byte-identical for any thread count.
        std::vector<std::size_t> block_offset(blocks.size() + 1, 0);
        for (std::size_t b = 0; b < blocks.size(); ++b)
            block_offset[b + 1] =
                block_offset[b] + blocks[b].bw_reached;

        std::vector<PairOutcome> outcomes(pair_refs.size());
        ThreadPool::runChunked(
            options.num_threads, blocks.size(),
            [&](std::size_t bbegin, std::size_t bend) {
                obs::ScopedSpan span(kPairsSite);
                span.arg("begin", bbegin);
                span.arg("end", bend);
                // SoA scratch rows, reused across the shard's blocks.
                std::vector<double> area_l1_fixed(n1), power_l1_row(n1);
                std::vector<double> hi2_lo1(nbw);
                std::vector<double> evaluated(nbw), valid(nbw);
                std::vector<double> runtimes(nbw);
                for (std::size_t b = bbegin; b < bend; ++b) {
                    const PeBlock &blk = blocks[b];
                    const PeArtifacts &art = artifacts[b];
                    PairOutcome *outs =
                        outcomes.data() + block_offset[b];
                    const std::size_t nb = blk.bw_reached;

                    // Per-pair error sequence mirrors the serial
                    // walk: config validation, then the layer-level
                    // stages, then the block's bind/perf/cost outcome
                    // (deterministic and shared by every bandwidth of
                    // the block).
                    bool block_ok = false;
                    for (std::size_t ib = 0; ib < nb; ++ib) {
                        PairOutcome &out = outs[ib];
                        try {
                            makeConfig(blk.pes,
                                       space.noc_bandwidths[ib])
                                .validate();
                        } catch (const std::exception &e) {
                            out.error = e.what();
                            continue;
                        }
                        if (!layer_ok) {
                            out.error = layer_error;
                            continue;
                        }
                        if (!art.ok) {
                            out.error = art.error;
                            continue;
                        }
                        block_ok = true;
                    }
                    if (!block_ok)
                        continue;

                    // The block's traffic record priced over the
                    // whole reached BW prefix: the engine ran once per
                    // block in the artifact stage; here one vectorized
                    // pass prices every bandwidth lane.
                    batchRuntimes(art.perf,
                                  space.noc_bandwidths.data(), nb,
                                  base_.noc.avgLatency(), groups_d,
                                  runtimes.data());

                    // Point accounting: (a)-feasible L1 indices are
                    // [0, a_hi); at each, the (c)-feasible L2 indices
                    // are a prefix whose length the fused kernel
                    // recovers for all bandwidth lanes with a
                    // two-pointer walk — identical to the exact walk's
                    // exhaustive counts because area and power are
                    // monotone along the L1, L2, and BW axes (the
                    // precondition the prefix screening above already
                    // uses; batchFeasibleRow is the evaluated-per-cell
                    // reference the kernel tests compare against).
                    const std::size_t lo1 = scanFirstFeasible(
                        l1_sizes_d.data(), n1,
                        art.scalars.l1_required);
                    const std::size_t lo2 = scanFirstFeasible(
                        l2_sizes_d.data(), n2,
                        art.scalars.l2_required);
                    const double lo2_d = static_cast<double>(lo2);
                    for (std::size_t i1 = 0; i1 < blk.a_hi; ++i1) {
                        const Count l1 = space.l1_sizes[i1];
                        area_l1_fixed[i1] = ap.peArea(blk.pes, vw, l1) +
                                            ap.l2FixedArea();
                        power_l1_row[i1] =
                            ap.pePower(blk.pes, vw, l1, clock);
                    }
                    sweepFeasibleCounts(
                        area_l1_fixed.data(), power_l1_row.data(),
                        blk.a_hi, area_l2_term.data(),
                        power_l2_term.data(), n2, bus_area.data(),
                        bus_power.data(), nb,
                        options.area_budget_mm2,
                        options.power_budget_mw, lo1, lo2_d,
                        evaluated.data(), valid.data(),
                        hi2_lo1.data());

                    // Closed-form interior selection. Runtime (hence
                    // throughput) is constant across the interior;
                    // energy is monotone nondecreasing in L1 and,
                    // within a DRAM-residency regime, in L2. So the
                    // (energy, order)- and (edp, order)-lex-minima
                    // over the valid window lie at the smallest
                    // feasible L1 crossed with the smallest feasible
                    // L2 or a residency-regime left edge — at most
                    // three candidates, all bandwidth-independent
                    // (with bandwidth-independent energies), priced
                    // once per block and selected per lane.
                    const std::size_t edge_w = scanFirstResident(
                        l2_sizes_d.data(), n2,
                        art.scalars.sums.weight_volume,
                        base_.precision_bytes,
                        art.scalars.sums.l2_required);
                    const std::size_t edge_i = scanFirstResident(
                        l2_sizes_d.data(), n2,
                        art.scalars.sums.input_volume,
                        base_.precision_bytes,
                        art.scalars.sums.l2_required);

                    struct EdgeCand
                    {
                        std::size_t i2 = 0;
                        double energy = 0.0;
                        double area_l2 = 0.0;
                        double power_l2 = 0.0;
                    };
                    EdgeCand cands[3];
                    std::size_t num_cands = 0;
                    // Lazily priced: only reachable from pairs with
                    // valid > 0, which implies lo1 < a_hi (so the L1
                    // rows hold lo1) and i2 < n2.
                    auto candAt =
                        [&](std::size_t i2) -> const EdgeCand & {
                        for (std::size_t k = 0; k < num_cands; ++k) {
                            if (cands[k].i2 == i2)
                                return cands[k];
                        }
                        EdgeCand &c = cands[num_cands++];
                        c.i2 = i2;
                        c.area_l2 = area_l1_fixed[lo1] + area_l2_term[i2];
                        c.power_l2 = power_l1_row[lo1] + power_l2_term[i2];
                        c.energy = energyFromSums(
                            art.scalars.sums, space.l1_sizes[lo1],
                            space.l2_sizes[i2], base_.precision_bytes,
                            base_.noc.avgLatency(), energy_);
                        return c;
                    };

                    for (std::size_t ib = 0; ib < nb; ++ib) {
                        PairOutcome &out = outs[ib];
                        if (!out.error.empty())
                            continue;
                        out.evaluated = evaluated[ib];
                        out.valid = valid[ib];
                        out.runtime = runtimes[ib];
                        if (out.valid <= 0.0)
                            continue;

                        // Same <= 3 candidates, same insertion order
                        // and dedup as the serial walk's addEdge.
                        std::size_t edges[3];
                        std::size_t num_edges = 0;
                        auto addEdge = [&](std::size_t edge) {
                            for (std::size_t k = 0; k < num_edges;
                                 ++k) {
                                if (edges[k] == edge)
                                    return;
                            }
                            edges[num_edges++] = edge;
                        };
                        addEdge(lo2);
                        for (const std::size_t edge :
                             {edge_w, edge_i}) {
                            if (edge > lo2 &&
                                static_cast<double>(edge) <
                                    hi2_lo1[ib])
                                addEdge(edge);
                        }
                        for (std::size_t k = 0; k < num_edges; ++k) {
                            const EdgeCand &c = candAt(edges[k]);
                            DesignPoint point;
                            point.num_pes = blk.pes;
                            point.l1_bytes = space.l1_sizes[lo1];
                            point.l2_bytes = space.l2_sizes[c.i2];
                            point.noc_bandwidth =
                                space.noc_bandwidths[ib];
                            point.area = c.area_l2 + bus_area[ib];
                            point.power = c.power_l2 + bus_power[ib];
                            point.runtime = out.runtime;
                            point.throughput =
                                art.scalars.total_macs / out.runtime;
                            point.energy = c.energy;
                            point.edp = point.energy * point.runtime;
                            point.l1_required =
                                art.scalars.l1_required;
                            point.l2_required =
                                art.scalars.l2_required;
                            point.valid = true;
                            const std::uint64_t order = orderIndex(
                                blk.pes_idx, lo1, c.i2, ib, space);
                            if (!out.has_valid) {
                                out.has_valid = true;
                                out.cand_energy = point;
                                out.energy_order = order;
                                out.cand_edp = point;
                                out.edp_order = order;
                                continue;
                            }
                            if (point.energy <
                                    out.cand_energy.energy ||
                                (point.energy ==
                                     out.cand_energy.energy &&
                                 order < out.energy_order)) {
                                out.cand_energy = point;
                                out.energy_order = order;
                            }
                            if (point.edp < out.cand_edp.edp ||
                                (point.edp == out.cand_edp.edp &&
                                 order < out.edp_order)) {
                                out.cand_edp = point;
                                out.edp_order = order;
                            }
                        }
                    }
                }
            });

        // Deterministic merge in pair order: errors, accounting,
        // bests, frontier, and samples all consume the per-pair slots
        // serially, so the result is byte-identical for any thread
        // count.
        std::size_t sample_counter = 0;
        for (std::size_t pi = 0; pi < pair_refs.size(); ++pi) {
            const PairOutcome &out = outcomes[pi];
            if (!out.error.empty())
                throw Error(out.error);
            result.evaluated_points += out.evaluated;
            result.valid_points += out.valid;
            if (!out.has_valid)
                continue;
            bests.offer(out.cand_energy, out.energy_order);
            bests.offer(out.cand_edp, out.edp_order);
            // Every valid point of the pair shares its throughput and
            // is weakly dominated by the (energy, order) lex-min, so
            // one insert per pair accumulates the frontier over all
            // valid points.
            frontier.insert({out.cand_energy.throughput,
                             out.cand_energy.energy, out.energy_order});
            if (options.sample_stride > 0 &&
                result.samples.size() < kMaxSamples &&
                (sample_counter++ % options.sample_stride) == 0) {
                result.samples.push_back(out.cand_energy);
            }
        }

        // Bulk accounting: the subtree skips partition the grid, and
        // every count is an exact integer in double, so the explored
        // total telescopes to the full grid size.
        result.explored_points = space.totalPoints();
        result.evaluated_pairs = static_cast<double>(pair_refs.size());

        finishFrontier([&](std::size_t pes_idx, std::size_t ibw) {
            const std::size_t slot = pair_slot[pes_idx * nbw + ibw];
            PairScalars s = artifacts[pair_refs[slot].block].scalars;
            s.runtime = outcomes[slot].runtime;
            return s;
        });
    }

    result.best_throughput = bests.throughput;
    result.best_energy = bests.energy;
    result.best_edp = bests.edp;

    const auto t1 = std::chrono::steady_clock::now();
    result.seconds = std::chrono::duration<double>(t1 - t0).count();
    result.rate = result.seconds > 0.0
                      ? result.explored_points / result.seconds
                      : 0.0;
    explore_span.arg(
        "explored", static_cast<std::uint64_t>(result.explored_points));
    explore_span.arg(
        "valid", static_cast<std::uint64_t>(result.valid_points));
    countSweep(result);
    return result;
}

} // namespace dse
} // namespace maestro
