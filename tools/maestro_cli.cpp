/**
 * @file
 * maestro — command-line driver for the library.
 *
 * Subcommands:
 *   analyze   analytical model for one layer or a whole network
 *   simulate  reference cycle-level simulation of one layer
 *             (periodic fast path by default; --sim-exact walks
 *             every nest position — the byte-identical oracle)
 *   crossval  mass randomized analytical-vs-simulator validation
 *   dse       hardware design space exploration for one layer
 *   tune      dataflow auto-tuning for one layer
 *   serve     long-lived HTTP analysis server (see src/serve)
 *
 * Inputs come from the zoo (--model vgg16 [--layer CONV2]) or a DSL
 * file (--file my.m; "-" reads the DSL from stdin, so scripts can
 * pipe the same payloads they would POST to the server). Dataflows
 * come from the catalog (--dataflow KC-P) or the file's Dataflow
 * blocks. Hardware defaults to the paper's 256-PE study config,
 * overridable with --pes/--noc-bw/... or a file's Accelerator block.
 *
 * Examples:
 *   maestro analyze --model vgg16 --layer CONV11 --dataflow KC-P
 *   maestro analyze --model mobilenetv2 --dataflow YR-P
 *   maestro analyze --file - --format json < payload.m
 *   maestro simulate --model alexnet --layer CONV2 --dataflow YR-P
 *   maestro dse --model vgg16 --layer CONV2 --dataflow KC-P --area 16
 *   maestro tune --model vgg16 --layer CONV11 --objective energy
 *   maestro serve --port 8080 --threads 4 --queue 64
 *
 * Shared options: --threads N runs analyzer evaluations on N worker
 * threads (results are bit-identical to --threads 1); --stats on
 * prints pipeline cache hit/miss counters and evaluation throughput
 * after the command's normal output. `--format json` emits the
 * matching endpoint's JSON (byte-identical for equal inputs).
 *
 * Observability: --trace OUT.json captures spans (pipeline stages,
 * fork-join batches, DSE shards) into a Chrome trace-event file
 * loadable in Perfetto; --profile prints a per-stage time/hit-rate
 * table to stderr. Neither changes the command's stdout bytes.
 * `maestro --version` prints the build version.
 *
 * Exit codes: 0 success, 1 runtime error (including a malformed or
 * out-of-range flag value), 2 usage error (missing or
 * unknown subcommand; usage goes to stderr).
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>

#include "src/common/error.hh"
#include "src/common/table.hh"
#include "src/common/version.hh"
#include "src/core/analyzer.hh"
#include "src/dataflows/catalog.hh"
#include "src/dse/explorer.hh"
#include "src/mapper/mapper.hh"
#include "src/frontend/parser.hh"
#include "src/model/zoo.hh"
#include "src/obs/obs.hh"
#include "src/obs/shared_metrics.hh"
#include "src/serve/server.hh"
#include "src/serve/workers.hh"
#include "src/sim/crossval.hh"
#include "src/sim/reference_sim.hh"

namespace
{

using namespace maestro;

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;

const char *const kUsage =
    "usage: maestro <analyze|simulate|crossval|dse|tune|serve> "
    "[--key value ...]\n"
    "  analyze   --model NAME | --file PATH ('-' = stdin) "
    "[--layer L] [--dataflow D] [--format json]\n"
    "  simulate  --model NAME --layer L [--dataflow D] "
    "[--sim-exact] [--max-steps N] [--format json]\n"
    "            (--sim-exact walks every nest position; the default "
    "periodic path\n"
    "             is byte-identical and collapses the steady state)\n"
    "  crossval  [--triples N] [--seed S] [--threads N] [--check] "
    "[--format json]\n"
    "            (randomized analytical-vs-simulator sweep; --check "
    "applies the CI\n"
    "             error-tolerance gate and fails on violation)\n"
    "  dse       --model NAME --layer L --dataflow D "
    "[--area MM2] [--power MW] [--dse-exact]\n"
    "            [--format json]\n"
    "  tune      --model NAME [--layer L] [--objective "
    "runtime|energy|edp]\n"
    "            [--mode layer|network|joint] [--top-k N] "
    "[--enforce-l1] [--tune-exact]\n"
    "            [--clusters 1,4,16,64] [--tiles 1,8,64] "
    "[--act-tiles 1,4]\n"
    "            [--area MM2] [--power MW] [--format json]\n"
    "            (--layer required for layer/joint modes; "
    "--tune-exact runs the\n"
    "             exhaustive oracle the pruned search is validated "
    "against)\n"
    "  serve     [--port P] [--host ADDR] [--threads N] "
    "[--queue N] [--deadline-ms N]\n"
    "            [--workers N] [--jobs N] [--jobs-per-client N] "
    "[--client-share N]\n"
    "            [--client-weights a=4,b=1] [--cache-entries N] "
    "[--cache-bytes N]\n"
    "            [--drain-linger-ms N]\n"
    "            [--access-log PATH] [--access-log-max-bytes N] "
    "[--events-ring N]\n"
    "            [--metrics-max-clients N] [--status-port P]\n"
    "            (--workers > 1 forks N shared-nothing SO_REUSEPORT "
    "processes;\n"
    "             SIGTERM drains every worker gracefully; workers "
    "share one metrics\n"
    "             segment, so GET /metrics on any worker is the "
    "fleet view;\n"
    "             --status-port adds a supervisor fleet-view "
    "listener;\n"
    "             --access-log appends structured JSONL events, "
    "rotated at\n"
    "             --access-log-max-bytes; GET /events tails the "
    "last N)\n"
    "shared: [--threads N] [--stats on] [--trace OUT.json] "
    "[--profile]\n"
    "  maestro --version prints the build version\n";

/** Parsed command line: subcommand plus --key value options. */
struct Args
{
    std::string command;
    std::map<std::string, std::string> options;

    bool has(const std::string &key) const { return options.count(key); }

    std::string
    get(const std::string &key, const std::string &fallback = "") const
    {
        const auto it = options.find(key);
        return it == options.end() ? fallback : it->second;
    }

    /**
     * Integer flag --key in [lo, hi]; `fallback` when absent. Every
     * numeric flag parses through serve::parseNumber, as the server
     * parses query numbers.
     * @throws Error naming the flag on any other value.
     */
    template <typename T>
    T
    getInt(const std::string &key, T fallback, T lo,
           T hi = std::numeric_limits<T>::max()) const
    {
        const auto it = options.find(key);
        if (it == options.end())
            return fallback;
        const std::optional<T> v = serve::parseNumber<T>(it->second);
        if (v && *v >= lo && *v <= hi)
            return *v;
        if (hi == std::numeric_limits<T>::max())
            throw Error(msg("--", key, " must be an integer >= ", lo,
                            ", found '", it->second, "'"));
        throw Error(msg("--", key, " must be an integer in [", lo, ", ",
                        hi, "], found '", it->second, "'"));
    }

    /**
     * Real flag --key, which must be finite and positive (every
     * real-valued flag is a positive quantity); `fallback` when
     * absent. @throws Error naming the flag on any other value.
     */
    double
    getPositive(const std::string &key, double fallback) const
    {
        const auto it = options.find(key);
        if (it == options.end())
            return fallback;
        const std::optional<double> v = serve::parsePositive(it->second);
        fatalIf(!v, "--", key, " must be a positive number, found '",
                it->second, "'");
        return *v;
    }
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    args.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string key = argv[i];
        fatalIf(key.rfind("--", 0) != 0,
                msg("expected --option, found '", key, "'"));
        // Valueless switches.
        if (key == "--dse-exact" || key == "--profile" ||
            key == "--enforce-l1" || key == "--tune-exact" ||
            key == "--sim-exact" || key == "--check") {
            args.options[key.substr(2)] = "on";
            continue;
        }
        fatalIf(i + 1 >= argc, msg("missing value for ", key));
        args.options[key.substr(2)] = argv[++i];
    }
    return args;
}

/** Reads a DSL file; "-" means stdin (the same bytes a script would
 *  POST to the server). */
frontend::ParsedFile
parseDslArg(const std::string &path)
{
    if (path != "-")
        return frontend::parseFile(path);
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    return frontend::parseString(buffer.str());
}

/**
 * Everything an analysis subcommand needs, resolved from the
 * arguments into the inputs the server resolves from a request.
 */
serve::RequestInputs
resolveInputs(const Args &args)
{
    serve::RequestInputs in;
    std::optional<frontend::ParsedFile> file;
    if (args.has("file"))
        file = parseDslArg(args.get("file"));

    if (args.has("model")) {
        in.network = zoo::byName(args.get("model"));
    } else if (file && !file->networks.empty()) {
        in.network = file->networks.front();
    } else {
        throw Error("provide --model <zoo-name> or --file with a "
                    "Network block");
    }

    if (args.has("layer"))
        in.layer_name = args.get("layer");

    if (args.has("dataflow")) {
        const std::string name = args.get("dataflow");
        if (file && file->dataflows.count(name)) {
            in.dataflows.push_back(file->dataflows.at(name));
        } else {
            in.dataflows.push_back(dataflows::byName(name));
        }
    } else if (file && !file->dataflows.empty()) {
        for (const auto &[name, df] : file->dataflows)
            in.dataflows.push_back(df);
    } else {
        in.dataflows = dataflows::table3();
    }

    if (file && file->accelerator)
        in.config = *file->accelerator;
    in.config.num_pes = args.getInt<Count>("pes", in.config.num_pes, 1);
    if (args.has("noc-bw")) {
        in.config.noc = NocModel(args.getPositive("noc-bw", 32.0),
                                 in.config.noc.avgLatency());
    }
    in.config.l1_bytes = args.getInt<Count>("l1", in.config.l1_bytes, 1);
    in.config.l2_bytes = args.getInt<Count>("l2", in.config.l2_bytes, 1);
    in.config.validate();
    return in;
}

/** Shared --threads/--stats options. */
struct RunOptions
{
    std::size_t num_threads = 1;
    bool print_stats = false;
};

RunOptions
runOptions(const Args &args)
{
    RunOptions opts;
    opts.num_threads = args.getInt<std::size_t>("threads", 1, 1);
    opts.print_stats = args.get("stats", "off") != "off";
    return opts;
}

/** Prints per-stage cache counters and evaluation throughput. */
void
printPipelineStats(const PipelineStats &stats, double seconds)
{
    std::cout << "\npipeline: " << stats.evaluations
              << " analyzer evaluations in "
              << fixedFormat(seconds, 3) << " s";
    if (seconds > 0.0) {
        std::cout << " ("
                  << fixedFormat(static_cast<double>(stats.evaluations) /
                                     seconds,
                                 1)
                  << " evals/s)";
    }
    std::cout << "\n";
    Table table({"stage", "hits", "misses", "evictions", "hit-rate"});
    auto add = [&](const char *name, const CacheStats &cs) {
        table.addRow({name, std::to_string(cs.hits),
                      std::to_string(cs.misses),
                      std::to_string(cs.evictions),
                      fixedFormat(100.0 * cs.hitRate(), 1) + "%"});
    };
    add("tensor", stats.tensor);
    add("binding", stats.binding);
    add("flat", stats.flat);
    add("layer", stats.layer);
    table.print(std::cout);
}

/**
 * --profile: per-stage hit/miss counters joined with the stage-miss
 * latency histograms of the process's metrics segment, printed to
 * stderr so stdout (tables, --format json) stays clean for pipes.
 */
void
printProfile(const PipelineStats &stats)
{
    constexpr const char *kStages[4] = {"tensor", "binding", "flat",
                                        "layer"};
    const CacheStats *cs[4] = {&stats.tensor, &stats.binding,
                               &stats.flat, &stats.layer};
    Table table({"stage", "hits", "misses", "hit-rate", "miss-time(ms)",
                 "avg-miss(us)"});
    obs::SharedMetrics &metrics = obs::processMetrics();
    for (std::size_t i = 0; i < 4; ++i) {
        const std::size_t slot = metrics.histogram(
            std::string("maestro_pipeline_stage_miss_us{stage=\"") +
            kStages[i] + "\"}");
        const LatencyHistogram::Snapshot snap =
            slot == obs::SharedMetrics::kNoSlot
                ? LatencyHistogram::Snapshot{}
                : metrics.histogramTotal(slot);
        const double avg_us =
            snap.count > 0 ? static_cast<double>(snap.total_us) /
                                 static_cast<double>(snap.count)
                           : 0.0;
        table.addRow({kStages[i], std::to_string(cs[i]->hits),
                      std::to_string(cs[i]->misses),
                      fixedFormat(100.0 * cs[i]->hitRate(), 1) + "%",
                      fixedFormat(static_cast<double>(snap.total_us) /
                                      1000.0,
                                  2),
                      fixedFormat(avg_us, 1)});
    }
    std::cerr << "\nprofile (stage-miss wall time; hits are "
                 "cache-served):\n";
    table.print(std::cerr);
}

/**
 * analyze --format json: the server's /analyze JSON from the same
 * code path (serve::analyzeJson), so CLI and server bodies are
 * byte-identical for equal inputs.
 */
int
cmdAnalyzeJson(const Args &args, const serve::RequestInputs &in)
{
    auto pipeline = std::make_shared<AnalysisPipeline>();
    std::cout << serve::analyzeJson(in, pipeline, EnergyModel())
              << "\n";
    if (args.has("profile"))
        printProfile(pipeline->stats());
    return kExitOk;
}

int
cmdAnalyze(const Args &args, const serve::RequestInputs &in)
{
    if (args.get("format", "table") == "json")
        return cmdAnalyzeJson(args, in);
    fatalIf(args.get("format", "table") != "table",
            "--format must be table or json");
    const RunOptions opts = runOptions(args);
    const Analyzer analyzer(in.config);
    const auto t0 = std::chrono::steady_clock::now();
    for (const Dataflow &df : in.dataflows) {
        std::cout << "== dataflow " << df.name() << " ==\n";
        Table table({"layer", "runtime(cyc)", "MACs/cyc", "util",
                     "energy(MACs)", "L1 req(B)", "L2 req(KB)",
                     "BW req", "bottleneck"});
        double total_runtime = 0.0;
        double total_energy = 0.0;
        const std::vector<const Layer *> layers =
            serve::selectLayers(in);
        std::vector<Analyzer::BatchJob> jobs;
        jobs.reserve(layers.size());
        for (const Layer *layer : layers)
            jobs.push_back({*layer, df});
        const std::vector<Analyzer::BatchEval> evals =
            analyzer.evaluateBatch(jobs, opts.num_threads);
        for (std::size_t i = 0; i < layers.size(); ++i) {
            const Layer *layer = layers[i];
            fatalIf(!evals[i].ok, msg("layer '", layer->name(),
                                      "': ", evals[i].error));
            const LayerAnalysis &la = evals[i].analysis;
            total_runtime += la.runtime;
            total_energy += la.onchipEnergy();
            table.addRow(
                {layer->name(), engFormat(la.runtime),
                 fixedFormat(la.throughput, 1),
                 fixedFormat(la.utilization, 2),
                 engFormat(la.onchipEnergy()),
                 fixedFormat(la.cost.l1_bytes_required, 0),
                 fixedFormat(la.cost.l2_bytes_required / 1024.0, 1),
                 fixedFormat(la.noc_bw_requirement, 1),
                 la.bottleneck});
        }
        table.print(std::cout);
        std::cout << "total: " << engFormat(total_runtime)
                  << " cycles, " << engFormat(total_energy)
                  << " MAC-units energy\n\n";
    }
    if (opts.print_stats) {
        const auto t1 = std::chrono::steady_clock::now();
        printPipelineStats(
            analyzer.pipelineStats(),
            std::chrono::duration<double>(t1 - t0).count());
    }
    if (args.has("profile"))
        printProfile(analyzer.pipelineStats());
    return 0;
}

/** Simulator options shared by the table and JSON paths. */
SimOptions
simOptions(const Args &args)
{
    SimOptions options;
    options.exact = args.has("sim-exact");
    options.max_steps = args.getPositive("max-steps", options.max_steps);
    return options;
}

/**
 * simulate --format json: the server's /simulate JSON from the same
 * code path (serve::simulateJson), so CLI and server bodies are
 * byte-identical for equal inputs.
 */
int
cmdSimulateJson(const Args &args, const serve::RequestInputs &in)
{
    serve::QueryParams params;
    if (in.layer_name)
        params["layer"] = *in.layer_name;
    if (args.has("sim-exact"))
        params["exact"] = "on";
    if (args.has("max-steps"))
        params["max_steps"] = args.get("max-steps");
    auto pipeline = std::make_shared<AnalysisPipeline>();
    std::cout << serve::simulateJson(in, params, pipeline, EnergyModel(),
                                     serve::KnobSpelling::Flag)
              << "\n";
    if (args.has("profile"))
        printProfile(pipeline->stats());
    return kExitOk;
}

int
cmdSimulate(const Args &args, const serve::RequestInputs &in)
{
    // Validated up front so both formats reject a bad --max-steps
    // alike (the JSON path hands the text to the server's parser).
    const SimOptions options = simOptions(args);
    if (args.get("format", "table") == "json")
        return cmdSimulateJson(args, in);
    fatalIf(args.get("format", "table") != "table",
            "--format must be table or json");
    // Like the server's /simulate: a single-layer network needs no
    // explicit selection.
    const Layer &layer =
        serve::singleLayer(in, "simulate", serve::KnobSpelling::Flag);
    const Analyzer analyzer(in.config);
    Table table({"dataflow", "analytical(cyc)", "simulated(cyc)",
                 "error(%)", "sim MACs", "sim active PEs",
                 "steps/class"});
    for (const Dataflow &df : in.dataflows) {
        const LayerAnalysis la = analyzer.analyzeLayer(layer, df);
        const SimResult sim =
            simulateLayer(layer, df, in.config, options);
        table.addRow(
            {df.name(), engFormat(la.runtime), engFormat(sim.cycles),
             fixedFormat(100.0 * (la.runtime - sim.cycles) /
                             sim.cycles,
                         2),
             engFormat(sim.macs),
             fixedFormat(sim.avg_active_pes, 1),
             engFormat(sim.steps) + "/" +
                 engFormat(sim.step_classes)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdCrossval(const Args &args)
{
    const RunOptions opts = runOptions(args);
    crossval::CrossvalOptions options;
    options.seed = args.getInt<std::uint64_t>("seed", options.seed, 0);
    options.triples =
        args.getInt<std::uint64_t>("triples", options.triples, 1);
    options.threads = opts.num_threads;

    const auto t0 = std::chrono::steady_clock::now();
    const crossval::CrossvalReport report =
        crossval::runCrossval(options);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    if (args.get("format", "table") == "json") {
        std::cout << crossval::crossvalJson(options, report) << "\n";
    } else {
        fatalIf(args.get("format", "table") != "table",
                "--format must be table or json");
        std::cout << "crossval: " << report.evaluated << " of "
                  << report.requested << " triples evaluated ("
                  << report.skipped << " skipped) in "
                  << fixedFormat(seconds, 2) << " s ("
                  << engFormat(static_cast<double>(report.evaluated) /
                               std::max(seconds, 1e-9))
                  << " triples/s), seed " << options.seed << "\n"
                  << "simulated " << engFormat(report.total_steps)
                  << " nest steps via "
                  << engFormat(report.total_classes)
                  << " step classes\n";
        Table table({"metric", "mean err(%)", "max err(%)", "<=1%",
                     "<=5%", "<=25%", ">25%"});
        const auto add = [&](const char *name,
                             const crossval::MetricStats &m) {
            const double n =
                std::max<double>(1.0, static_cast<double>(m.count));
            const auto pct = [&](std::uint64_t c) {
                return fixedFormat(100.0 * static_cast<double>(c) / n,
                                   1);
            };
            table.addRow(
                {name, fixedFormat(m.meanAbsPct(), 2),
                 fixedFormat(m.max_abs_pct, 2), pct(m.hist[0]),
                 pct(m.hist[0] + m.hist[1] + m.hist[2]),
                 pct(m.count - m.hist[5]), pct(m.hist[5])});
        };
        add("cycles", report.cycles);
        add("MACs", report.macs);
        add("L2 supply", report.l2_supply);
        add("DRAM fill", report.dram_fill);
        table.print(std::cout);
    }

    if (args.has("check")) {
        const crossval::GateResult gate =
            crossval::checkGate(report, options);
        if (!gate.ok) {
            for (const std::string &f : gate.failures)
                std::cerr << "crossval gate: " << f << "\n";
            return kExitError;
        }
        std::cerr << "crossval gate: ok\n";
    }
    return kExitOk;
}

/**
 * Copies the --area/--power budgets into `params` as query text,
 * checked first so both output formats reject a bad one alike.
 */
void
addBudgetParams(const Args &args, serve::QueryParams &params)
{
    for (const char *budget : {"area", "power"}) {
        if (args.has(budget)) {
            args.getPositive(budget, 0.0);
            params[budget] = args.get(budget);
        }
    }
}

/**
 * dse --format json: the server's /dse JSON from the same code path
 * (serve::dseJson), so CLI and server bodies are byte-identical for
 * equal inputs.
 */
int
cmdDseJson(const Args &args, const serve::RequestInputs &in)
{
    serve::QueryParams params;
    addBudgetParams(args, params);
    if (args.has("dse-exact"))
        params["exact"] = "on";
    auto pipeline = std::make_shared<AnalysisPipeline>();
    std::cout << serve::dseJson(in, params, pipeline, EnergyModel())
              << "\n";
    if (args.has("profile"))
        printProfile(pipeline->stats());
    return kExitOk;
}

int
cmdDse(const Args &args, const serve::RequestInputs &in)
{
    fatalIf(!in.layer_name, "dse needs --layer");
    fatalIf(in.dataflows.size() != 1,
            "dse needs exactly one --dataflow");
    const RunOptions opts = runOptions(args);
    if (args.get("format", "table") == "json")
        return cmdDseJson(args, in);
    fatalIf(args.get("format", "table") != "table",
            "--format must be table or json");
    const Layer &layer = in.network.layer(*in.layer_name);
    serve::QueryParams params;
    addBudgetParams(args, params);
    dse::DseOptions options = serve::dseBudgets(params);
    options.num_threads = opts.num_threads;
    options.exact = args.has("dse-exact");
    auto pipeline = std::make_shared<AnalysisPipeline>();
    const dse::Explorer explorer(in.config, AreaPowerModel(),
                                 EnergyModel(), pipeline);
    const dse::DseResult res = explorer.explore(
        layer, in.dataflows.front(), dse::DesignSpace::figure13(),
        options);
    std::cout << "explored " << engFormat(res.explored_points) << " ("
              << engFormat(res.valid_points) << " valid) in "
              << fixedFormat(res.seconds, 2) << " s ("
              << engFormat(res.rate) << " designs/s, "
              << (options.exact ? "exact" : "fast") << " sweep)\n";
    Table table({"objective", "PEs", "L1(B)", "L2(KB)", "BW",
                 "area", "power", "MACs/cyc", "energy"});
    auto add = [&](const char *name, const dse::DesignPoint &p) {
        table.addRow({name, std::to_string(p.num_pes),
                      std::to_string(p.l1_bytes),
                      fixedFormat(p.l2_bytes / 1024.0, 0),
                      fixedFormat(p.noc_bandwidth, 0),
                      fixedFormat(p.area, 2), fixedFormat(p.power, 0),
                      fixedFormat(p.throughput, 1),
                      engFormat(p.energy)});
    };
    add("throughput", res.best_throughput);
    add("energy", res.best_energy);
    add("EDP", res.best_edp);
    table.print(std::cout);
    if (opts.print_stats) {
        std::cout << "\ndse: " << engFormat(res.evaluated_points)
                  << " evaluated, " << engFormat(res.valid_points)
                  << " valid, " << fixedFormat(res.evaluated_pairs, 0)
                  << " (PEs,BW) pairs analyzed, frontier "
                  << res.frontier_size << " -> " << res.pareto.size()
                  << " kept, " << res.samples.size() << " samples\n";
        if (options.exact) {
            printPipelineStats(pipeline->stats(), res.seconds);
        } else {
            std::cout << "(fast sweep runs the stage engines "
                         "directly; pipeline caches unused)\n";
        }
    }
    if (args.has("profile"))
        printProfile(pipeline->stats());
    return 0;
}

/**
 * The /tune query parameters equivalent to the tune flags. Both
 * output formats resolve their knobs from these through the server's
 * own parsing (serve::tuneQuery, serve::dseBudgets), so they accept
 * and reject the same strings with the same messages; passing
 * KnobSpelling::Flag makes those messages name the flags.
 */
serve::QueryParams
tuneParams(const Args &args, const serve::RequestInputs &in)
{
    serve::QueryParams params;
    params["objective"] = args.get("objective", "runtime");
    params["mode"] = args.get("mode", "layer");
    if (in.layer_name)
        params["layer"] = *in.layer_name;
    if (args.has("top-k"))
        params["top_k"] = args.get("top-k");
    if (args.has("clusters"))
        params["clusters"] = args.get("clusters");
    if (args.has("tiles"))
        params["tiles"] = args.get("tiles");
    if (args.has("act-tiles"))
        params["act_tiles"] = args.get("act-tiles");
    if (args.has("enforce-l1"))
        params["enforce_l1"] = "on";
    if (args.has("tune-exact"))
        params["exact"] = "on";
    addBudgetParams(args, params);
    return params;
}

/**
 * tune --format json: the server's /tune JSON from the same code
 * path (serve::tuneJson), so CLI and server bodies are
 * byte-identical for equal inputs.
 */
int
cmdTuneJson(const Args &args, const serve::RequestInputs &in,
            const RunOptions &opts)
{
    auto pipeline = std::make_shared<AnalysisPipeline>();
    std::cout << serve::tuneJson(in, tuneParams(args, in), pipeline,
                                 EnergyModel(), opts.num_threads,
                                 serve::KnobSpelling::Flag)
              << "\n";
    if (args.has("profile"))
        printProfile(pipeline->stats());
    return kExitOk;
}

/** One search-stats summary line of a tune run. */
void
printSearchStats(const mapper::MapperStats &stats)
{
    std::cout << "covered " << engFormat(stats.covered)
              << " mappings (" << stats.generated << " canonical, "
              << stats.pruned_symmetry << " symmetry-pruned, "
              << stats.pruned_capacity << " capacity-cut, "
              << stats.pruned_bound << " bound-pruned, "
              << stats.evaluated << " evaluated, " << stats.rejected
              << " rejected) in " << fixedFormat(stats.seconds, 3)
              << " s = " << engFormat(stats.per_second)
              << " mappings/s\n\n";
}

int
cmdTune(const Args &args, const serve::RequestInputs &in)
{
    const RunOptions opts = runOptions(args);
    if (args.get("format", "table") == "json")
        return cmdTuneJson(args, in, opts);
    fatalIf(args.get("format", "table") != "table",
            "--format must be table or json");

    const serve::QueryParams params = tuneParams(args, in);
    const serve::TuneQuery query = serve::tuneQuery(
        params, opts.num_threads, serve::KnobSpelling::Flag);
    const mapper::Objective objective = query.objective;
    const std::string &obj = query.objective_name;
    const std::string &mode = query.mode;
    const mapper::MapperOptions &options = query.options;
    const Analyzer analyzer(in.config);

    if (mode == "network") {
        const mapper::NetworkMapperResult res = mapper::mapNetwork(
            analyzer, in.network, objective, options);
        std::cout << "tuned network " << in.network.name() << " ("
                  << res.unique_shapes << " unique shapes, objective "
                  << obj << ")\n";
        printSearchStats(res.stats);
        Table table({"layer", "best dataflow", "objective", "reused"});
        for (const auto &entry : res.layers) {
            table.addRow({entry.layer, entry.best.dataflow.name(),
                          engFormat(entry.best.objective_value),
                          entry.reused ? "yes" : "no"});
        }
        table.print(std::cout);
        std::cout << "\nper-layer-best total: "
                  << engFormat(res.adaptive_total)
                  << "\nbest single dataflow ("
                  << engFormat(res.best_single.objective_value)
                  << "):\n"
                  << res.best_single.dataflow.toString();
        return 0;
    }

    const Layer &layer =
        serve::singleLayer(in, "tune", serve::KnobSpelling::Flag);

    if (mode == "joint") {
        dse::DseOptions dse_options = serve::dseBudgets(params);
        dse_options.num_threads = opts.num_threads;
        const mapper::JointMapperResult res = mapper::mapJoint(
            analyzer, layer, objective, dse::DesignSpace::figure13(),
            dse_options, options);
        std::cout << "joint-tuned " << layer.name() << " (objective "
                  << obj << ", " << res.designs.size()
                  << " shortlisted mappings, "
                  << engFormat(res.explored_points)
                  << " design points)\n";
        printSearchStats(res.mapping.stats);
        Table table({"dataflow", "PEs", "NoC BW", "objective"});
        for (const auto &d : res.designs) {
            table.addRow({d.mapping.dataflow.name(),
                          std::to_string(d.point.num_pes),
                          fixedFormat(d.point.noc_bandwidth, 1),
                          engFormat(d.objective_value)});
        }
        table.print(std::cout);
        std::cout << "\nwinning mapping (at " << res.best.point.num_pes
                  << " PEs, BW " << res.best.point.noc_bandwidth
                  << "):\n"
                  << res.best.mapping.dataflow.toString();
        return 0;
    }

    const mapper::MapperResult res =
        mapper::mapLayer(analyzer, layer, objective, options);
    std::cout << "tuned " << layer.name() << " (objective " << obj
              << (options.exact ? ", exhaustive oracle" : "") << ")\n";
    printSearchStats(res.stats);
    Table table({"rank", "dataflow", "runtime", "energy", "util"});
    int rank = 1;
    for (const auto &md : res.ranked) {
        table.addRow({std::to_string(rank++), md.dataflow.name(),
                      engFormat(md.runtime), engFormat(md.energy),
                      fixedFormat(md.utilization, 2)});
    }
    table.print(std::cout);
    std::cout << "\nwinning dataflow:\n"
              << res.best().dataflow.toString();
    return 0;
}

/** Parses --client-weights "alice=4,bob=1" into the weights map. */
std::map<std::string, std::uint32_t>
parseClientWeights(const std::string &spec)
{
    std::map<std::string, std::uint32_t> weights;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(',', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string item = spec.substr(pos, end - pos);
        pos = end + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        const std::optional<std::uint32_t> weight =
            eq == std::string::npos
                ? std::nullopt
                : serve::parseNumber<std::uint32_t>(item.substr(eq + 1));
        fatalIf(eq == std::string::npos || eq == 0 || !weight,
                "--client-weights expects name=weight entries, found '",
                item, "'");
        fatalIf(*weight < 1, "--client-weights weight for '",
                item.substr(0, eq), "' must be >= 1");
        weights[item.substr(0, eq)] = *weight;
    }
    return weights;
}

int
cmdServe(const Args &args)
{
    using Size = std::size_t;
    serve::ServeOptions opts;
    opts.host = args.get("host", opts.host);
    opts.port = static_cast<std::uint16_t>(
        args.getInt<int>("port", opts.port, 0, 65535));
    opts.worker_threads =
        args.getInt<Size>("threads", opts.worker_threads, 1);
    opts.queue_capacity =
        args.getInt<Size>("queue", opts.queue_capacity, 1);
    opts.deadline_ms = args.getInt<int>("deadline-ms", opts.deadline_ms, 1);
    opts.max_connections =
        args.getInt<Size>("max-connections", opts.max_connections, 1);
    opts.job_capacity = args.getInt<Size>("jobs", opts.job_capacity, 1);
    opts.jobs_per_client =
        args.getInt<Size>("jobs-per-client", opts.jobs_per_client, 0);
    opts.client_share =
        args.getInt<Size>("client-share", opts.client_share, 0);
    opts.result_cache_entries =
        args.getInt<Size>("cache-entries", opts.result_cache_entries, 0);
    opts.result_cache_bytes =
        args.getInt<Size>("cache-bytes", opts.result_cache_bytes, 0);
    opts.drain_linger_ms =
        args.getInt<int>("drain-linger-ms", opts.drain_linger_ms, 0);
    opts.client_weights = parseClientWeights(args.get("client-weights"));
    opts.access_log = args.get("access-log", opts.access_log);
    opts.access_log_max_bytes = args.getInt<Size>(
        "access-log-max-bytes", opts.access_log_max_bytes, 0);
    opts.events_ring = args.getInt<Size>("events-ring", opts.events_ring, 0);
    opts.metrics_max_clients = args.getInt<Size>(
        "metrics-max-clients", opts.metrics_max_clients, 0);

    const Size workers = args.getInt<Size>("workers", 1, 1);
    const int status_port = args.getInt<int>("status-port", -1, 0, 65535);
    fatalIf(status_port >= 0 && workers < 2,
            "--status-port needs --workers >= 2 (a single-process "
            "server already serves the fleet view on its own port)");
    if (workers > 1)
        return serve::runWorkers(opts, workers, status_port) == 0
                   ? kExitOk
                   : kExitError;

    serve::runServer(opts, false);
    return kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace maestro;
    if (argc < 2) {
        std::cerr << kUsage;
        return kExitUsage;
    }
    const std::string command = argv[1];
    if (command == "--version" || command == "version") {
        std::cout << "maestro " << kVersion << "\n";
        return kExitOk;
    }
    const bool known = command == "analyze" || command == "simulate" ||
                       command == "crossval" || command == "dse" ||
                       command == "tune" || command == "serve";
    if (!known) {
        std::cerr << "error: unknown command '" << command << "'\n"
                  << kUsage;
        return kExitUsage;
    }
    try {
        const Args args = parseArgs(argc, argv);

        // Observability opt-ins, enabled before any analysis work:
        // --profile records site latencies, --trace additionally
        // captures spans for Chrome trace export. Neither changes
        // the command's stdout bytes.
        const std::string trace_path = args.get("trace");
        if (args.has("profile"))
            obs::enableMode(obs::kTiming);
        if (!trace_path.empty())
            obs::Tracer::instance().start();

        const int rc = [&] {
            if (args.command == "serve")
                return cmdServe(args);
            if (args.command == "crossval")
                return cmdCrossval(args);
            const serve::RequestInputs in = resolveInputs(args);
            if (args.command == "analyze")
                return cmdAnalyze(args, in);
            if (args.command == "simulate")
                return cmdSimulate(args, in);
            if (args.command == "dse")
                return cmdDse(args, in);
            return cmdTune(args, in);
        }();

        if (!trace_path.empty()) {
            obs::Tracer &tracer = obs::Tracer::instance();
            tracer.stop();
            std::ofstream out(trace_path, std::ios::binary);
            fatalIf(!out, msg("cannot write trace file '", trace_path,
                              "'"));
            out << tracer.json() << "\n";
            std::cerr << "trace: wrote " << tracer.eventCount()
                      << " events (" << tracer.droppedCount()
                      << " dropped) to " << trace_path << "\n";
        }
        return rc;
    } catch (const Error &e) {
        std::cerr << "error: " << e.what() << "\n";
        return kExitError;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return kExitError;
    }
}
