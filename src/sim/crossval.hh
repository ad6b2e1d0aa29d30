/**
 * @file
 * Mass randomized cross-validation of the analytical model against
 * the reference simulator (the continuously-enforced rendering of
 * the paper's Fig. 9 accuracy claim).
 *
 * A deterministic sampler derives thousands of (layer shape,
 * dataflow, hardware config) triples from a seed; each triple is
 * evaluated by both the analytical engines and the periodic fast
 * simulator, and per-metric relative errors (cycles, MACs, L2
 * supply, DRAM fill) are folded into histograms. Sampling is a pure
 * function of (seed, index), so a failing triple is reproducible
 * from its index alone, evaluation shards across the thread pool
 * with index-ordered merging (byte-identical for any thread count),
 * and the CI gate (`checkGate`) bounds the error statistics and
 * prints the offending triple on violation.
 */

#ifndef MAESTRO_SIM_CROSSVAL_HH
#define MAESTRO_SIM_CROSSVAL_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/accelerator.hh"
#include "src/model/layer.hh"

namespace maestro
{
namespace crossval
{

/** One sampled (layer, dataflow, hardware) validation triple. */
struct TripleSpec
{
    OpType op = OpType::Conv2D;
    Count n = 1, k = 1, c = 1, y = 1, x = 1, r = 1, s = 1;
    Count stride = 1, pad = 0;
    double input_density = 1.0;
    double weight_density = 1.0;
    std::string dataflow;
    Count num_pes = 64;
    double noc_bw = 8.0, noc_lat = 1.0;
    double offchip_bw = 4.0, offchip_lat = 4.0;
    Count l2_bytes = 262144;
    Count vector_width = 1;

    Layer layer() const;
    AcceleratorConfig config() const;

    /** One-line reproduction string (printed by gate failures). */
    std::string describe() const;
};

/** Pure function of (seed, index): the sampler. */
TripleSpec sampleTriple(std::uint64_t seed, std::uint64_t index);

/** Error histogram of one metric (percent relative error vs sim). */
struct MetricStats
{
    /** Bucket upper bounds in percent; last bucket is unbounded. */
    static constexpr std::array<double, 5> kBounds = {1.0, 2.0, 5.0,
                                                      10.0, 25.0};

    std::uint64_t count = 0;
    double sum_abs_pct = 0.0;
    double max_abs_pct = 0.0;
    std::uint64_t worst_index = 0;
    std::array<std::uint64_t, 6> hist{};

    void add(double abs_pct, std::uint64_t index);
    double meanAbsPct() const
    {
        return count > 0 ? sum_abs_pct / static_cast<double>(count)
                         : 0.0;
    }
    /** Fraction of cases in the unbounded (>25%) bucket. */
    double tailFraction() const
    {
        return count > 0 ? static_cast<double>(hist.back()) /
                               static_cast<double>(count)
                         : 0.0;
    }
};

/** Crossval run parameters. */
struct CrossvalOptions
{
    std::uint64_t seed = 7;
    std::uint64_t triples = 1000;
    std::size_t threads = 1;
    double max_steps = 5e8;
};

/** Per-metric tolerance bounds enforced by the CI gate. */
struct CrossvalGate
{
    double max_macs_pct = 0.01;
    /** Cycles: paper Fig. 9 reports a 3.9% mean error. The tail bound
     *  needs a sample of thousands of triples to mean anything (1.5%
     *  of 200 is 3 triples), so CI runs 5,000 per seed. */
    double mean_cycles_pct = 3.0;
    double tail_cycles_fraction = 0.015;
    double mean_l2_pct = 25.0;
    /** DRAM fill is bounded by mean AND tail (like cycles): the
     *  residency-aware fill model tracks the simulator closely, so a
     *  regression shows up as outliers long before the mean moves. */
    double mean_dram_pct = 1.0;
    double tail_dram_fraction = 0.005;
};

/** Aggregated crossval run result. */
struct CrossvalReport
{
    std::uint64_t requested = 0;
    std::uint64_t evaluated = 0;
    std::uint64_t skipped = 0; ///< infeasible bind/guard/analyze
    MetricStats cycles;
    MetricStats macs;
    MetricStats l2_supply;
    MetricStats dram_fill;
    double total_steps = 0.0;   ///< nest steps covered by the sim
    double total_classes = 0.0; ///< step classes actually evaluated
};

/** Runs the sweep. Byte-identical for any `threads` value. */
CrossvalReport runCrossval(const CrossvalOptions &options);

/**
 * Checks the report against the gate. On violation, each failure
 * line names the metric, the bound, and the worst offending triple
 * (its index and full reproduction string).
 */
struct GateResult
{
    bool ok = true;
    std::vector<std::string> failures;
};
GateResult checkGate(const CrossvalReport &report,
                     const CrossvalOptions &options,
                     const CrossvalGate &gate = CrossvalGate());

/** Deterministic JSON rendering (no wall-clock fields). */
std::string crossvalJson(const CrossvalOptions &options,
                         const CrossvalReport &report);

} // namespace crossval
} // namespace maestro

#endif // MAESTRO_SIM_CROSSVAL_HH
