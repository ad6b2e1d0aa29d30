/**
 * @file
 * Model-speed benchmark (paper Sec. 4.5 headline): MAESTRO evaluates a
 * dataflow in ~10 ms, 1029-4116x faster than equivalent RTL
 * simulation. This google-benchmark binary measures our analyzer's
 * per-evaluation latency across layers and dataflows, plus the
 * reference simulator for contrast (our "RTL") — the ratio is this
 * reproduction's speedup figure.
 *
 * After the google-benchmark tables it runs a pipeline-cache study —
 * no-cache vs cold vs warm layer throughput on ResNet-50 (plus the
 * no-cache workload re-run with the obs tracer live, to record the
 * instrumentation overhead) and a 1/2/4 thread DSE sweep — and emits
 * the numbers as one machine-readable
 * JSON line prefixed "MAESTRO_BENCH_JSON ". Thread-scaling figures are
 * only meaningful when hw_threads in that line exceeds 1.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/common/json.hh"
#include "src/core/analyzer.hh"
#include "src/obs/obs.hh"
#include "src/obs/shared_metrics.hh"
#include "src/serve/fleet.hh"
#include "src/dataflows/catalog.hh"
#include "src/dse/explorer.hh"
#include "src/mapper/mapper.hh"
#include "src/model/zoo.hh"
#include "src/sim/crossval.hh"
#include "src/sim/reference_sim.hh"

namespace
{

using namespace maestro;

const Network &
vgg()
{
    static const Network net = zoo::vgg16();
    return net;
}

void
BM_AnalyzeLayer(benchmark::State &state, const char *layer_name,
                const char *dataflow_name)
{
    const Layer &layer = vgg().layer(layer_name);
    const Dataflow df = dataflows::byName(dataflow_name);
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    for (auto _ : state) {
        // Clear the stage caches so this keeps measuring a full
        // evaluation, not a layer-cache hit.
        analyzer.pipeline()->clearCaches();
        benchmark::DoNotOptimize(analyzer.analyzeLayer(layer, df));
    }
}

void
BM_AnalyzeNetwork(benchmark::State &state, const char *dataflow_name)
{
    const Dataflow df = dataflows::byName(dataflow_name);
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    for (auto _ : state) {
        analyzer.pipeline()->clearCaches();
        benchmark::DoNotOptimize(analyzer.analyzeNetwork(vgg(), df));
    }
}

void
BM_SimulateLayer(benchmark::State &state, const char *layer_name,
                 const char *dataflow_name)
{
    const Layer &layer = vgg().layer(layer_name);
    const Dataflow df = dataflows::byName(dataflow_name);
    const AcceleratorConfig cfg = AcceleratorConfig::paperStudy();
    for (auto _ : state) {
        benchmark::DoNotOptimize(simulateLayer(layer, df, cfg));
    }
}

BENCHMARK_CAPTURE(BM_AnalyzeLayer, conv2_kcp, "CONV2", "KC-P");
BENCHMARK_CAPTURE(BM_AnalyzeLayer, conv2_yrp, "CONV2", "YR-P");
BENCHMARK_CAPTURE(BM_AnalyzeLayer, conv11_kcp, "CONV11", "KC-P");
BENCHMARK_CAPTURE(BM_AnalyzeLayer, conv11_cp, "CONV11", "C-P");
BENCHMARK_CAPTURE(BM_AnalyzeNetwork, vgg16_kcp, "KC-P");
BENCHMARK_CAPTURE(BM_AnalyzeNetwork, vgg16_yrp, "YR-P");
// The simulator plays the RTL role: the analytical/simulated time
// ratio is this reproduction's counterpart of the paper's 1029-4116x.
BENCHMARK_CAPTURE(BM_SimulateLayer, conv11_kcp, "CONV11", "KC-P")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);
BENCHMARK_CAPTURE(BM_SimulateLayer, conv11_yrp, "CONV11", "YR-P")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

/**
 * MAESTRO_BENCH_FAST=1 shrinks reps/passes and skips the slow sweep
 * studies — the CI overhead gate wants the pipeline study's
 * instrumentation figures in seconds, not minutes.
 */
bool
benchFast()
{
    const char *v = std::getenv("MAESTRO_BENCH_FAST");
    return v != nullptr && *v != '\0' && *v != '0';
}

/** Wall-clock seconds of one call, best of `reps` runs. */
template <typename Fn>
double
bestSeconds(std::size_t reps, Fn &&fn)
{
    double best = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        const double s =
            std::chrono::duration<double>(t1 - t0).count();
        if (r == 0 || s < best)
            best = s;
    }
    return best;
}

/**
 * Pipeline-cache study: ResNet-50 under KC-P, paper-study hardware.
 *
 *  - nocache: a fresh pipeline per layer, so every layer pays the full
 *    chain (the pre-pipeline analyzer's behavior);
 *  - cold: one pipeline for the whole network, so repeated layer
 *    shapes (ResNet's stacked blocks) dedup within the pass;
 *  - warm: a second pass over the same pipeline — pure cache hits.
 *
 * Then a DSE sweep over an evaluation-dominated space at 1/2/4
 * threads. All figures go into one JSON line for scripts to scrape;
 * thread scaling is bounded by hw_threads (1 on a single-core host).
 */
void
pipelineStudy()
{
    const Network net = zoo::resnet50();
    const Dataflow df = dataflows::byName("KC-P");
    const AcceleratorConfig cfg = AcceleratorConfig::paperStudy();
    // Each timed rep makes `passes` full sweeps so the region is long
    // enough to time stably on a slow machine; best-of-`reps` drops
    // scheduler noise.
    const bool fast = benchFast();
    const std::size_t reps = fast ? 3 : 7;
    const std::size_t passes = fast ? 2 : 4;
    const auto layer_count = static_cast<double>(net.layers().size());
    const double layers = layer_count * static_cast<double>(passes);

    // Untimed warm-up sweep: page faults, allocator growth, and
    // frequency ramp otherwise land on whichever variant is measured
    // first and skew the overhead ratios below.
    for (const Layer &layer : net.layers()) {
        const Analyzer analyzer(cfg);
        benchmark::DoNotOptimize(analyzer.analyzeLayer(layer, df));
    }

    // The instrumentation ratios compare sub-ms regions, so they get
    // more best-of reps than the throughput figures: the minimum of
    // many short runs converges on the true cost even on a loaded
    // machine, where 3-7 reps still carry scheduler noise.
    const std::size_t timing_reps = fast ? 31 : 25;

    const double nocache_s = bestSeconds(timing_reps, [&] {
        for (std::size_t p = 0; p < passes; ++p) {
            for (const Layer &layer : net.layers()) {
                const Analyzer analyzer(cfg);
                benchmark::DoNotOptimize(
                    analyzer.analyzeLayer(layer, df));
            }
        }
    });

    std::uint64_t cold_evals = 0;
    const double cold_s = bestSeconds(reps, [&] {
        for (std::size_t p = 0; p < passes; ++p) {
            const Analyzer analyzer(cfg);
            benchmark::DoNotOptimize(analyzer.analyzeNetwork(net, df));
            cold_evals = analyzer.pipelineStats().layer.misses;
        }
    });

    const Analyzer warm_analyzer(cfg);
    warm_analyzer.analyzeNetwork(net, df);
    const double warm_s = bestSeconds(reps, [&] {
        for (std::size_t p = 0; p < passes; ++p) {
            benchmark::DoNotOptimize(
                warm_analyzer.analyzeNetwork(net, df));
        }
    });

    // The no-cache workload with the fleet metrics segment live and
    // tracing still OFF. The serve layer accounts once per HTTP
    // request, and one analyze request evaluates a whole network —
    // so each pass replays one request's accounting (endpoint/status
    // counters, latency histograms, a per-client series: a handful
    // of relaxed atomics on the lane plus one short mutex hold).
    // This is the daemon's tracing-off hot path; CI gates
    // segment_overhead_pct below 1%.
    auto segment = obs::SharedMetrics::create(1);
    serve::fleet::FleetLane lane(segment, 0, 64);
    const std::string bench_client = "bench";
    const serve::Endpoint *analyze = serve::findEndpoint("/analyze");
    auto countOne = [&](std::chrono::steady_clock::time_point t0) {
        const auto us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        lane.countRequest(analyze);
        lane.recordResponse(analyze, "miss", 200, us);
        lane.clientRequest(bench_client);
    };
    const double segment_s = bestSeconds(timing_reps, [&] {
        for (std::size_t p = 0; p < passes; ++p) {
            const auto t0 = std::chrono::steady_clock::now();
            for (const Layer &layer : net.layers()) {
                const Analyzer analyzer(cfg);
                benchmark::DoNotOptimize(
                    analyzer.analyzeLayer(layer, df));
            }
            countOne(t0);
        }
    });

    // The gated overhead figure measures the accounting cost
    // DIRECTLY (a tight loop, long enough for scheduler noise to
    // average out) and divides by the best-of request time: an A/B
    // wall-clock comparison of sub-millisecond regions cannot
    // resolve a sub-1% delta on a shared machine, this ratio can.
    const std::size_t account_iters = 20000;
    const auto acc0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < account_iters; ++i)
        countOne(acc0);
    const double account_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - acc0)
            .count() /
        static_cast<double>(account_iters);
    const double request_s =
        nocache_s / static_cast<double>(passes);

    // The same workload again with the tracer ALSO live: every stage
    // miss records a span plus a histogram sample, so the ratio to
    // nocache_s bounds the full instrumentation cost (segment +
    // tracer). Runs after the disabled-path measurements so those
    // stay comparable across builds; tracing is torn down before the
    // DSE timings.
    obs::Tracer::instance().start();
    const double traced_s = bestSeconds(timing_reps, [&] {
        for (std::size_t p = 0; p < passes; ++p) {
            const auto t0 = std::chrono::steady_clock::now();
            for (const Layer &layer : net.layers()) {
                const Analyzer analyzer(cfg);
                benchmark::DoNotOptimize(
                    analyzer.analyzeLayer(layer, df));
            }
            countOne(t0);
        }
    });
    obs::Tracer::instance().stop();
    obs::disableMode(obs::kTiming | obs::kSpans);

    // Evaluation-dominated DSE space: unique (PEs, bandwidth) pair per
    // inner point, single L1/L2 choice.
    dse::DesignSpace space;
    space.pe_counts.clear();
    for (Count pes = 8; pes <= 512; pes += 8)
        space.pe_counts.push_back(pes);
    space.l1_sizes = {512};
    space.l2_sizes = {512 * 1024};
    space.noc_bandwidths = {1, 2, 4, 8, 16, 32, 64};
    const Layer &dse_layer = vgg().layer("CONV2");
    const Dataflow dse_df = dataflows::byName("KC-P");

    auto dseSeconds = [&](std::size_t threads) {
        return bestSeconds(3, [&] {
            dse::DseOptions options;
            options.num_threads = threads;
            // Fresh pipeline per run: no carry-over between sweeps.
            const dse::Explorer explorer(cfg, AreaPowerModel(),
                                         EnergyModel(),
                                         std::make_shared<AnalysisPipeline>());
            benchmark::DoNotOptimize(
                explorer.explore(dse_layer, dse_df, space, options));
        });
    };
    const double dse_1t = dseSeconds(1);
    const double dse_2t = dseSeconds(2);
    const double dse_4t = dseSeconds(4);

    // One machine-readable line; the JSON body goes through the
    // shared escaping-correct writer (same path as the server).
    JsonWriter w;
    w.beginObject();
    w.key("bench").value("pipeline_study");
    w.key("network").value("resnet50");
    w.key("dataflow").value("KC-P");
    w.key("layers").fixed(layer_count, 0);
    w.key("unique_layer_evals").value(cold_evals);
    w.key("nocache_layers_per_sec").fixed(layers / nocache_s, 1);
    w.key("cold_layers_per_sec").fixed(layers / cold_s, 1);
    w.key("warm_layers_per_sec").fixed(layers / warm_s, 1);
    w.key("segment_layers_per_sec").fixed(layers / segment_s, 1);
    w.key("segment_account_ns").fixed(account_s * 1e9, 1);
    w.key("segment_overhead_pct")
        .fixed(account_s / request_s * 100.0, 3);
    w.key("traced_layers_per_sec").fixed(layers / traced_s, 1);
    w.key("tracing_overhead_pct")
        .fixed((traced_s - nocache_s) / nocache_s * 100.0, 2);
    w.key("dedup_speedup").fixed(nocache_s / cold_s, 2);
    w.key("warm_speedup").fixed(nocache_s / warm_s, 2);
    w.key("dse_seconds_1t").fixed(dse_1t, 4);
    w.key("dse_seconds_2t").fixed(dse_2t, 4);
    w.key("dse_seconds_4t").fixed(dse_4t, 4);
    w.key("dse_speedup_2t").fixed(dse_1t / dse_2t, 2);
    w.key("dse_speedup_4t").fixed(dse_1t / dse_4t, 2);
    w.key("hw_threads").value(std::thread::hardware_concurrency());
    w.endObject();
    std::printf("MAESTRO_BENCH_JSON %s\n", w.str().c_str());
}

/**
 * DSE sweep-rate study: the Fig. 13 space (vgg16 CONV2, KC-P) under
 * the paper's Eyeriss budget and a loose budget, measuring grid
 * points per second for the exact grid walk and the fast closed-form
 * sweep at 1/2/4 threads. Emits a second MAESTRO_BENCH_JSON line
 * ("dse_sweep"); BENCH_dse.json checks in a captured copy alongside
 * the pre-rewrite baseline rates.
 */
void
dseSweepStudy()
{
    const AcceleratorConfig cfg = AcceleratorConfig::paperStudy();
    const dse::Explorer explorer(cfg);
    const dse::DesignSpace space = dse::DesignSpace::figure13();
    const double total = space.totalPoints();
    const Layer &layer = vgg().layer("CONV2");
    const Dataflow df = dataflows::byName("KC-P");

    // Scalar-fast baseline rates captured in BENCH_dse.json at commit
    // aec45de (closed-form sweep, per-point scalar calls, 1 thread) —
    // the batch (SoA) engine's speedup_vs_scalar_fast is measured
    // against these, following the pre_rewrite_* precedent.
    struct BudgetCase
    {
        const char *name;
        double area, power;
        double scalar_fast_1t;
    };
    const BudgetCase budgets[] = {
        {"paper", 16.0, 450.0, 2.887e9},
        {"loose", 100.0, 5000.0, 1.183e9},
    };

    JsonWriter w;
    w.beginObject();
    w.key("bench").value("dse_sweep");
    w.key("space").value("figure13");
    w.key("layer").value("CONV2");
    w.key("dataflow").value("KC-P");
    w.key("total_points").fixed(total, 0);
    w.key("hw_threads").value(std::thread::hardware_concurrency());
    w.key("budgets").beginObject();
    for (const BudgetCase &budget : budgets) {
        auto sweepSeconds = [&](bool exact, std::size_t threads,
                                dse::DseResult *out) {
            return bestSeconds(3, [&] {
                dse::DseOptions options;
                options.exact = exact;
                options.num_threads = threads;
                options.area_budget_mm2 = budget.area;
                options.power_budget_mw = budget.power;
                dse::DseResult res =
                    explorer.explore(layer, df, space, options);
                if (out)
                    *out = res;
                benchmark::DoNotOptimize(res);
            });
        };
        dse::DseResult exact_res, fast_res;
        const double exact_s = sweepSeconds(true, 1, &exact_res);
        const double fast_1t = sweepSeconds(false, 1, &fast_res);
        const double fast_2t = sweepSeconds(false, 2, nullptr);
        const double fast_4t = sweepSeconds(false, 4, nullptr);
        const bool bests_match =
            exact_res.best_throughput.throughput ==
                fast_res.best_throughput.throughput &&
            exact_res.best_energy.energy == fast_res.best_energy.energy &&
            exact_res.best_edp.edp == fast_res.best_edp.edp &&
            exact_res.valid_points == fast_res.valid_points;
        w.key(budget.name).beginObject();
        w.key("exact_pts_per_sec").sci(total / exact_s, 3);
        // The fast sweep is the batch (SoA) engine; batch_* names the
        // measurement explicitly, scalar_fast_pts_per_sec_1t is the
        // captured pre-batch baseline the speedup compares against.
        w.key("batch_pts_per_sec_1t").sci(total / fast_1t, 3);
        w.key("batch_pts_per_sec_2t").sci(total / fast_2t, 3);
        w.key("batch_pts_per_sec_4t").sci(total / fast_4t, 3);
        w.key("scalar_fast_pts_per_sec_1t").sci(budget.scalar_fast_1t, 3);
        w.key("speedup_vs_scalar_fast")
            .fixed((total / fast_1t) / budget.scalar_fast_1t, 1);
        w.key("fast_vs_exact_speedup").fixed(exact_s / fast_1t, 1);
        w.key("bests_match").value(bests_match);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("MAESTRO_BENCH_JSON %s\n", w.str().c_str());
}

/**
 * Mapper coverage study: the decoupled mapper searches the declared
 * mapping space (7! loop orders x spatial choice x cluster configs x
 * tile ladders) with symmetry collapse, ladder clipping, and capacity
 * cuts; this reports its covered mappings per second at 1/2/4
 * threads. Emits the mapper rows of BENCH_tuner.json as a third
 * MAESTRO_BENCH_JSON line.
 */
void
mapperSweepStudy()
{
    const Analyzer analyzer(AcceleratorConfig::paperStudy());
    const Layer &layer = vgg().layer("CONV11");

    // Mapper v2 over the default declared space, 1/2/4 threads.
    auto mapperSeconds = [&](std::size_t threads,
                             mapper::MapperResult *out) {
        return bestSeconds(3, [&] {
            mapper::MapperOptions options;
            options.num_threads = threads;
            mapper::MapperResult res = mapper::mapLayer(
                analyzer, layer, mapper::Objective::Runtime, options);
            if (out)
                *out = res;
            benchmark::DoNotOptimize(res);
        });
    };
    mapper::MapperResult res;
    const double map_1t = mapperSeconds(1, &res);
    const double map_2t = mapperSeconds(2, nullptr);
    const double map_4t = mapperSeconds(4, nullptr);
    const double covered = res.stats.covered;
    const double evaluated =
        static_cast<double>(res.stats.evaluated);

    JsonWriter w;
    w.beginObject();
    w.key("bench").value("mapper_sweep");
    w.key("layer").value("CONV11");
    w.key("objective").value("runtime");
    w.key("hw_threads").value(std::thread::hardware_concurrency());
    w.key("mapper").beginObject();
    w.key("covered").fixed(covered, 0);
    w.key("generated")
        .value(static_cast<std::uint64_t>(res.stats.generated));
    w.key("pruned_symmetry")
        .value(static_cast<std::uint64_t>(res.stats.pruned_symmetry));
    w.key("pruned_capacity")
        .value(static_cast<std::uint64_t>(res.stats.pruned_capacity));
    w.key("pruned_bound")
        .value(static_cast<std::uint64_t>(res.stats.pruned_bound));
    w.key("evaluated")
        .value(static_cast<std::uint64_t>(res.stats.evaluated));
    w.key("covered_per_generated")
        .fixed(covered / static_cast<double>(res.stats.generated), 1);
    w.key("covered_per_evaluated").fixed(covered / evaluated, 1);
    w.key("covered_per_sec_1t").sci(covered / map_1t, 3);
    w.key("covered_per_sec_2t").sci(covered / map_2t, 3);
    w.key("covered_per_sec_4t").sci(covered / map_4t, 3);
    w.key("evals_per_sec_1t").sci(evaluated / map_1t, 3);
    w.endObject();
    w.endObject();
    std::printf("MAESTRO_BENCH_JSON %s\n", w.str().c_str());
}

/**
 * Crossval throughput + periodic-vs-exact speedup study. Two parts:
 *
 *  - the crossval sweep itself (seed 7, 1000 triples) at 1/2/4
 *    threads, reporting triples per second plus the per-metric error
 *    statistics the CI gate bounds;
 *  - the fast-path payoff on a steady-state-dominated layer (64-ch
 *    64x64 conv, where prologue/epilogue effects are a sliver of the
 *    schedule): wall-clock of the periodic simulator vs the exact
 *    nest walker on the same (layer, dataflow, hw), per dataflow.
 *    The acceptance bar is >= 50x on every steady-state-dominated
 *    case; the class collapse (steps per step class) is reported
 *    alongside as the structural explanation.
 *
 * Emits a fourth MAESTRO_BENCH_JSON line ("crossval");
 * BENCH_crossval.json checks in a captured copy.
 */
void
crossvalStudy()
{
    crossval::CrossvalOptions options;
    options.seed = 7;
    options.triples = 1000;

    crossval::CrossvalReport report;
    auto sweepSeconds = [&](std::size_t threads) {
        return bestSeconds(3, [&] {
            options.threads = threads;
            report = crossval::runCrossval(options);
            benchmark::DoNotOptimize(report);
        });
    };
    const double sweep_1t = sweepSeconds(1);
    const double sweep_2t = sweepSeconds(2);
    const double sweep_4t = sweepSeconds(4);
    const auto evaluated = static_cast<double>(report.evaluated);

    // Steady-state-dominated layer: big enough that the repeating
    // window dwarfs the boundary steps, small enough that the exact
    // oracle finishes in seconds.
    DimMap<Count> dims(1);
    dims[Dim::K] = 64;
    dims[Dim::C] = 64;
    dims[Dim::R] = 3;
    dims[Dim::S] = 3;
    dims[Dim::Y] = 64;
    dims[Dim::X] = 64;
    const Layer layer("conv64", OpType::Conv2D, dims);
    const AcceleratorConfig cfg = AcceleratorConfig::paperStudy();
    const char *speedup_dataflows[] = {"KC-P", "C-P", "YX-P"};

    JsonWriter w;
    w.beginObject();
    w.key("bench").value("crossval");
    w.key("seed").value(options.seed);
    w.key("triples").value(options.triples);
    w.key("evaluated").value(report.evaluated);
    w.key("skipped").value(report.skipped);
    w.key("hw_threads").value(std::thread::hardware_concurrency());
    w.key("triples_per_sec_1t").fixed(evaluated / sweep_1t, 1);
    w.key("triples_per_sec_2t").fixed(evaluated / sweep_2t, 1);
    w.key("triples_per_sec_4t").fixed(evaluated / sweep_4t, 1);
    w.key("nest_steps_covered").sci(report.total_steps, 3);
    w.key("step_classes_evaluated").sci(report.total_classes, 3);

    w.key("error_pct").beginObject();
    const struct
    {
        const char *name;
        const crossval::MetricStats &stats;
    } metrics[] = {
        {"cycles", report.cycles},
        {"macs", report.macs},
        {"l2_supply", report.l2_supply},
        {"dram_fill", report.dram_fill},
    };
    for (const auto &metric : metrics) {
        w.key(metric.name).beginObject();
        w.key("mean").fixed(metric.stats.meanAbsPct(), 2);
        w.key("max").fixed(metric.stats.max_abs_pct, 2);
        w.key("hist").beginArray();
        for (const std::uint64_t bucket : metric.stats.hist)
            w.value(bucket);
        w.endArray();
        w.endObject();
    }
    w.endObject();

    // Periodic vs exact on the steady-state layer, per dataflow. The
    // exact walk runs once (it is the slow side being measured).
    w.key("steady_state_speedup").beginObject();
    for (const char *name : speedup_dataflows) {
        const Dataflow df = dataflows::byName(name);
        SimResult fast;
        const double fast_s = bestSeconds(3, [&] {
            fast = simulateLayer(layer, df, cfg);
            benchmark::DoNotOptimize(fast);
        });
        SimOptions exact_options;
        exact_options.exact = true;
        const double exact_s = bestSeconds(1, [&] {
            benchmark::DoNotOptimize(
                simulateLayer(layer, df, cfg, exact_options));
        });
        w.key(name).beginObject();
        w.key("steps").fixed(fast.steps, 0);
        w.key("step_classes").fixed(fast.step_classes, 0);
        w.key("exact_seconds").fixed(exact_s, 3);
        w.key("fast_seconds").sci(fast_s, 3);
        w.key("speedup").fixed(exact_s / fast_s, 1);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("MAESTRO_BENCH_JSON %s\n", w.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    pipelineStudy();
    // Fast mode stops here: the CI overhead gate only needs the
    // pipeline study's instrumentation figures.
    if (benchFast())
        return 0;
    dseSweepStudy();
    mapperSweepStudy();
    crossvalStudy();
    return 0;
}
