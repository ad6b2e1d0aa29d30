#include "src/sim/crossval.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "src/common/error.hh"
#include "src/common/json.hh"
#include "src/common/thread_pool.hh"
#include "src/core/analyzer.hh"
#include "src/dataflows/catalog.hh"
#include "src/sim/reference_sim.hh"

namespace maestro
{
namespace crossval
{

namespace
{

/**
 * SplitMix64: a tiny stateless-seedable generator. Each triple's
 * stream is derived from (seed, index) alone, so triple i is the same
 * no matter which thread samples it or how many came before.
 */
struct SplitMix64
{
    std::uint64_t x;

    explicit SplitMix64(std::uint64_t seed, std::uint64_t index)
        : x(seed ^ (index * 0x9E3779B97F4A7C15ULL +
                    0xD1B54A32D192ED03ULL))
    {
        // Warm up so close (seed, index) pairs decorrelate.
        next();
        next();
    }

    std::uint64_t next()
    {
        x += 0x9E3779B97F4A7C15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform pick from an initializer list. */
    template <typename T> T pick(std::initializer_list<T> values)
    {
        return values.begin()[below(values.size())];
    }
};

/** Outcome of one triple, stored in its index slot before merging. */
struct TripleOutcome
{
    bool evaluated = false;
    double cycles_pct = 0.0;
    double macs_pct = 0.0;
    double l2_pct = 0.0;
    double dram_pct = 0.0;
    double steps = 0.0;
    double classes = 0.0;
};

double
absPct(double analytical, double simulated)
{
    return 100.0 * std::abs(analytical - simulated) /
           std::max(1.0, std::abs(simulated));
}

TripleOutcome
evaluateTriple(const TripleSpec &spec, double max_steps)
{
    TripleOutcome out;
    try {
        const Layer layer = spec.layer();
        const Dataflow df = dataflows::byName(spec.dataflow);
        const AcceleratorConfig cfg = spec.config();

        SimOptions sim_opts;
        sim_opts.max_steps = max_steps;
        const SimResult sim = simulateLayer(layer, df, cfg, sim_opts);
        const LayerAnalysis la = Analyzer(cfg).analyzeLayer(layer, df);

        const double sim_l2 = sim.l2_supply[TensorKind::Weight] +
                              sim.l2_supply[TensorKind::Input] +
                              sim.output_commits;
        const double ana_l2 = la.cost.l2_reads[TensorKind::Weight] +
                              la.cost.l2_reads[TensorKind::Input] +
                              la.cost.l2_writes[TensorKind::Output];
        const double sim_dram = sim.dram_fill[TensorKind::Weight] +
                                sim.dram_fill[TensorKind::Input];
        const double ana_dram = la.cost.dram_reads[TensorKind::Weight] +
                                la.cost.dram_reads[TensorKind::Input];

        out.cycles_pct = absPct(la.runtime, sim.cycles);
        out.macs_pct = absPct(la.total_macs, sim.macs);
        out.l2_pct = absPct(ana_l2, sim_l2);
        out.dram_pct = absPct(ana_dram, sim_dram);
        out.steps = sim.steps;
        out.classes = sim.step_classes;
        out.evaluated = true;
    } catch (const Error &) {
        // Unbindable dataflow, invalid combination, or guard trip:
        // counted, not fatal — the sampler intentionally roams wide.
        out.evaluated = false;
    }
    return out;
}

void
writeMetric(JsonWriter &w, const char *name, const MetricStats &m)
{
    w.key(name).beginObject();
    w.key("count").value(static_cast<std::uint64_t>(m.count));
    w.key("mean_abs_pct").fixed(m.meanAbsPct(), 4);
    w.key("max_abs_pct").fixed(m.max_abs_pct, 4);
    w.key("worst_index").value(
        static_cast<std::uint64_t>(m.worst_index));
    w.key("hist_bounds_pct").beginArray();
    for (double b : MetricStats::kBounds)
        w.value(b);
    w.endArray();
    w.key("hist").beginArray();
    for (std::uint64_t h : m.hist)
        w.value(static_cast<std::uint64_t>(h));
    w.endArray();
    w.endObject();
}

} // namespace

void
MetricStats::add(double abs_pct, std::uint64_t index)
{
    ++count;
    sum_abs_pct += abs_pct;
    if (abs_pct > max_abs_pct) {
        max_abs_pct = abs_pct;
        worst_index = index;
    }
    std::size_t bucket = kBounds.size();
    for (std::size_t i = 0; i < kBounds.size(); ++i) {
        if (abs_pct <= kBounds[i]) {
            bucket = i;
            break;
        }
    }
    ++hist[bucket];
}

Layer
TripleSpec::layer() const
{
    DimMap<Count> d;
    d[Dim::N] = n;
    d[Dim::K] = k;
    d[Dim::C] = c;
    d[Dim::Y] = y;
    d[Dim::X] = x;
    d[Dim::R] = r;
    d[Dim::S] = s;
    Layer l("crossval", op, d);
    l.stride(stride).padding(pad);
    l.inputDensity(input_density).weightDensity(weight_density);
    return l;
}

AcceleratorConfig
TripleSpec::config() const
{
    AcceleratorConfig cfg = AcceleratorConfig::paperStudy();
    cfg.num_pes = num_pes;
    cfg.noc = NocModel(noc_bw, noc_lat);
    cfg.offchip = NocModel(offchip_bw, offchip_lat);
    cfg.l2_bytes = l2_bytes;
    cfg.vector_width = vector_width;
    return cfg;
}

std::string
TripleSpec::describe() const
{
    std::ostringstream out;
    const char *op_name = op == OpType::DepthwiseConv ? "dwconv"
                          : op == OpType::PointwiseConv
                              ? "pwconv"
                              : "conv";
    out << op_name << " n" << n << " k" << k << " c" << c << " y" << y
        << " x" << x << " r" << r << " s" << s << " stride" << stride
        << " pad" << pad << " din" << input_density << " dw"
        << weight_density << " | " << dataflow << " | pes" << num_pes
        << " noc" << noc_bw << "/" << noc_lat << " dram" << offchip_bw
        << "/" << offchip_lat << " l2_" << l2_bytes << " vw"
        << vector_width;
    return out.str();
}

TripleSpec
sampleTriple(std::uint64_t seed, std::uint64_t index)
{
    SplitMix64 rng(seed, index);
    TripleSpec t;

    const std::uint64_t op_roll = rng.below(10);
    t.op = op_roll < 7   ? OpType::Conv2D
           : op_roll < 9 ? OpType::PointwiseConv
                         : OpType::DepthwiseConv;

    t.n = rng.below(8) == 0 ? 2 : 1;
    t.c = rng.pick<Count>({3, 4, 8, 16, 24, 32, 48, 64});
    t.k = rng.pick<Count>({4, 8, 16, 24, 32, 48, 64});
    t.y = rng.pick<Count>({7, 8, 12, 14, 16, 20, 24, 28, 32});
    t.x = rng.below(4) == 0
              ? rng.pick<Count>({7, 8, 12, 14, 16, 20, 24, 28, 32})
              : t.y;
    if (t.op == OpType::PointwiseConv) {
        t.r = t.s = 1;
    } else {
        t.r = rng.pick<Count>({1, 3, 3, 5, 7});
        t.s = rng.below(4) == 0 ? rng.pick<Count>({1, 3, 3, 5}) : t.r;
    }
    if (t.op == OpType::DepthwiseConv)
        t.k = 1;
    t.stride = rng.below(3) == 0 ? 2 : 1;
    t.pad = rng.below(2) == 0 ? std::max(t.r, t.s) / 2 : 0;
    // Keep the filter inside the padded activation.
    t.r = std::min(t.r, t.y + 2 * t.pad);
    t.s = std::min(t.s, t.x + 2 * t.pad);

    if (rng.below(5) == 0)
        t.input_density = rng.pick<double>({0.5, 0.75, 0.9});
    if (rng.below(8) == 0)
        t.weight_density = rng.pick<double>({0.6, 0.9});

    t.dataflow =
        rng.pick<const char *>({"C-P", "X-P", "YX-P", "YR-P", "KC-P"});

    t.num_pes = rng.pick<Count>({16, 32, 64, 128, 256});
    t.noc_bw = rng.pick<double>({4.0, 8.0, 16.0, 32.0});
    t.noc_lat = rng.pick<double>({1.0, 2.0});
    t.offchip_bw = rng.pick<double>({2.0, 4.0, 8.0, 16.0});
    t.offchip_lat = 4.0;
    t.l2_bytes = rng.pick<Count>({65536, 262144, 1048576});
    t.vector_width = rng.pick<Count>({1, 1, 2, 4});
    return t;
}

CrossvalReport
runCrossval(const CrossvalOptions &options)
{
    const std::size_t count = static_cast<std::size_t>(options.triples);
    std::vector<TripleOutcome> slots(count);

    // Shard across the pool into preallocated index slots, then merge
    // serially in index order: the report is byte-identical for any
    // thread count (the DSE sweep and the mapper shard the same way).
    ThreadPool::runChunked(
        options.threads, count,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                slots[i] = evaluateTriple(
                    sampleTriple(options.seed, i), options.max_steps);
        });

    CrossvalReport report;
    report.requested = options.triples;
    for (std::size_t i = 0; i < count; ++i) {
        const TripleOutcome &o = slots[i];
        if (!o.evaluated) {
            ++report.skipped;
            continue;
        }
        ++report.evaluated;
        report.cycles.add(o.cycles_pct, i);
        report.macs.add(o.macs_pct, i);
        report.l2_supply.add(o.l2_pct, i);
        report.dram_fill.add(o.dram_pct, i);
        report.total_steps += o.steps;
        report.total_classes += o.classes;
    }
    return report;
}

GateResult
checkGate(const CrossvalReport &report, const CrossvalOptions &options,
          const CrossvalGate &gate)
{
    GateResult result;
    const auto offender = [&](const MetricStats &m) {
        return msg("triple #", m.worst_index, ": ",
                   sampleTriple(options.seed, m.worst_index)
                       .describe());
    };
    const auto fail = [&](std::string line) {
        result.ok = false;
        result.failures.push_back(std::move(line));
    };

    if (report.evaluated == 0) {
        fail("crossval evaluated 0 triples (all skipped)");
        return result;
    }
    // At most a third of the samples may be infeasible; beyond that
    // the sampler (or the binder) has regressed.
    if (report.skipped * 2 > report.evaluated)
        fail(msg("crossval skipped ", report.skipped, " of ",
                 report.requested,
                 " triples; the sampler should bind far more often"));

    if (report.macs.max_abs_pct > gate.max_macs_pct)
        fail(msg("MACs: max error ", report.macs.max_abs_pct,
                 "% > ", gate.max_macs_pct, "% (",
                 offender(report.macs), ")"));
    if (report.cycles.meanAbsPct() > gate.mean_cycles_pct)
        fail(msg("cycles: mean error ", report.cycles.meanAbsPct(),
                 "% > ", gate.mean_cycles_pct, "% (worst ",
                 report.cycles.max_abs_pct, "% at ",
                 offender(report.cycles), ")"));
    if (report.cycles.tailFraction() > gate.tail_cycles_fraction)
        fail(msg("cycles: ", report.cycles.tailFraction() * 100.0,
                 "% of cases err >25%, above the ",
                 gate.tail_cycles_fraction * 100.0, "% tail bound (",
                 offender(report.cycles), ")"));
    if (report.l2_supply.meanAbsPct() > gate.mean_l2_pct)
        fail(msg("L2 supply: mean error ",
                 report.l2_supply.meanAbsPct(), "% > ",
                 gate.mean_l2_pct, "% (",
                 offender(report.l2_supply), ")"));
    if (report.dram_fill.meanAbsPct() > gate.mean_dram_pct)
        fail(msg("DRAM fill: mean error ",
                 report.dram_fill.meanAbsPct(), "% > ",
                 gate.mean_dram_pct, "% (",
                 offender(report.dram_fill), ")"));
    if (report.dram_fill.tailFraction() > gate.tail_dram_fraction)
        fail(msg("DRAM fill: ", report.dram_fill.tailFraction() * 100.0,
                 "% of cases err >25%, above the ",
                 gate.tail_dram_fraction * 100.0, "% tail bound (",
                 offender(report.dram_fill), ")"));
    return result;
}

std::string
crossvalJson(const CrossvalOptions &options,
             const CrossvalReport &report)
{
    JsonWriter w;
    w.beginObject();
    w.key("endpoint").value("crossval");
    w.key("seed").value(static_cast<std::uint64_t>(options.seed));
    w.key("triples").value(
        static_cast<std::uint64_t>(options.triples));
    w.key("evaluated").value(
        static_cast<std::uint64_t>(report.evaluated));
    w.key("skipped").value(static_cast<std::uint64_t>(report.skipped));
    w.key("total_steps").value(report.total_steps);
    w.key("total_step_classes").value(report.total_classes);
    w.key("metrics").beginObject();
    writeMetric(w, "cycles", report.cycles);
    writeMetric(w, "macs", report.macs);
    writeMetric(w, "l2_supply", report.l2_supply);
    writeMetric(w, "dram_fill", report.dram_fill);
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace crossval
} // namespace maestro
