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
 * analyze, simulate, dse and tune run their endpoint's evaluation
 * (src/serve/handlers) once and print its JSON (`--format json`, the
 * server's body for equal inputs) or a table of the same result.
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
 * Shared options: --threads N runs the command's units of work on N
 * threads (results are bit-identical to --threads 1); --stats on
 * prints pipeline cache hit/miss counters and evaluation throughput
 * after analyze's and dse's tables.
 *
 * Observability: --trace OUT.json captures spans (pipeline stages,
 * fork-join batches, DSE shards) into a Chrome trace-event file
 * loadable in Perfetto; --profile prints a per-stage time/hit-rate
 * table to stderr. Neither changes the command's stdout bytes.
 * `maestro --version` prints the build version.
 *
 * Exit codes: 0 success, 1 runtime error (including a flag the
 * command does not take, or a malformed or out-of-range flag value),
 * 2 usage error (missing or unknown subcommand; usage goes to
 * stderr).
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>

#include "src/common/error.hh"
#include "src/common/table.hh"
#include "src/common/version.hh"
#include "src/model/zoo.hh"
#include "src/obs/obs.hh"
#include "src/obs/shared_metrics.hh"
#include "src/serve/handlers.hh"
#include "src/serve/server.hh"
#include "src/serve/workers.hh"
#include "src/sim/crossval.hh"

namespace
{

using namespace maestro;

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;

/** Errors from the shared knob parsing name the CLI's flags. */
constexpr serve::KnobSpelling kFlag = serve::KnobSpelling::Flag;

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
    "            [--max-connections N] [--workers N] [--jobs N] "
    "[--jobs-per-client N]\n"
    "            [--client-share N] [--client-weights a=4,b=1] "
    "[--cache-entries N]\n"
    "            [--cache-bytes N] [--drain-linger-ms N]\n"
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
    "analyze, simulate, dse and tune also take --model, --file, "
    "--layer, --dataflow,\n"
    "  --pes, --noc-bw, --l1 and --l2; any other flag is an error\n"
    "shared: [--threads N] [--stats on] [--trace OUT.json] "
    "[--profile] [--format table|json]\n"
    "  maestro --version prints the build version\n";

/** One flag a command takes. */
struct FlagSpec
{
    /** The flag without its leading "--". */
    std::string_view name;

    /** The endpoint query key the flag becomes; empty for a flag the
     *  CLI reads itself. */
    std::string_view query = {};

    /** Takes no value (reads "on"). */
    bool is_switch = false;
};

/** Flags every command takes. */
constexpr FlagSpec kSharedFlags[] = {
    {"threads"}, {"stats"}, {"trace"}, {"profile", {}, true}, {"format"}};

/** The inputs of the analysis commands (resolveCliInputs). */
constexpr FlagSpec kInputFlags[] = {
    {"model"}, {"file"},   {"layer", "layer"}, {"dataflow", "dataflow"},
    {"pes"},   {"noc-bw"}, {"l1"},             {"l2"}};

constexpr FlagSpec kSimulateFlags[] = {{"sim-exact", "exact", true},
                                       {"max-steps", "max_steps"}};

constexpr FlagSpec kCrossvalFlags[] = {
    {"triples"}, {"seed"}, {"check", {}, true}};

constexpr FlagSpec kDseFlags[] = {
    {"area", "area"}, {"power", "power"}, {"dse-exact", "exact", true}};

constexpr FlagSpec kTuneFlags[] = {
    {"objective", "objective"}, {"mode", "mode"}, {"top-k", "top_k"},
    {"enforce-l1", "enforce_l1", true}, {"tune-exact", "exact", true},
    {"clusters", "clusters"}, {"tiles", "tiles"},
    {"act-tiles", "act_tiles"}, {"area", "area"}, {"power", "power"}};

constexpr FlagSpec kServeFlags[] = {
    {"port"}, {"host"}, {"queue"}, {"deadline-ms"}, {"max-connections"},
    {"workers"}, {"jobs"}, {"jobs-per-client"}, {"client-share"},
    {"client-weights"}, {"cache-entries"}, {"cache-bytes"},
    {"drain-linger-ms"}, {"access-log"}, {"access-log-max-bytes"},
    {"events-ring"}, {"metrics-max-clients"}, {"status-port"}};

/** A subcommand and the flags it takes besides kSharedFlags. */
struct Command
{
    std::string_view name;
    std::span<const FlagSpec> flags;

    /** Also takes kInputFlags and runs its endpoint's evaluation. */
    bool analysis = false;
};

constexpr Command kCommands[] = {
    {"analyze", {}, true},        {"simulate", kSimulateFlags, true},
    {"crossval", kCrossvalFlags}, {"dse", kDseFlags, true},
    {"tune", kTuneFlags, true},   {"serve", kServeFlags},
};

/** Parsed command line: the subcommand, its flags, and the endpoint
 *  query they spell. */
struct Args
{
    const Command *command = nullptr;

    /** Flag values by flag name (no leading "--"); switches read
     *  "on". The CLI's own numeric flags parse from here through
     *  serve::paramCount / paramPositive. */
    serve::QueryParams options;

    /** The flags that are endpoint knobs, by their query names. */
    serve::QueryParams query;

    bool has(const char *key) const { return options.count(key) > 0; }

    std::string
    get(const char *key, const char *fallback = "") const
    {
        const auto it = options.find(key);
        return it == options.end() ? fallback : it->second;
    }
};

/** `name`'s spec among the flags `command` takes, else null. */
const FlagSpec *
findFlag(const Command &command, std::string_view name)
{
    const std::span<const FlagSpec> groups[] = {
        command.flags, kSharedFlags,
        command.analysis ? kInputFlags : std::span<const FlagSpec>()};
    for (const std::span<const FlagSpec> group : groups) {
        for (const FlagSpec &flag : group) {
            if (flag.name == name)
                return &flag;
        }
    }
    return nullptr;
}

/** @throws Error naming the first flag `command` does not take. */
Args
parseArgs(const Command &command, int argc, char **argv)
{
    Args args;
    args.command = &command;
    for (int i = 2; i < argc; ++i) {
        const std::string_view arg = argv[i];
        fatalIf(arg.rfind("--", 0) != 0, "expected --option, found '",
                arg, "'");
        const FlagSpec *flag = findFlag(command, arg.substr(2));
        fatalIf(!flag, "unknown flag ", arg, " for ", command.name);
        fatalIf(!flag->is_switch && i + 1 >= argc, "missing value for ",
                arg);
        const std::string value = flag->is_switch ? "on" : argv[++i];
        args.options[std::string(flag->name)] = value;
        if (!flag->query.empty())
            args.query[std::string(flag->query)] = value;
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
 * An analysis command's inputs: the --file DSL with the --model
 * network placed before its own, resolved as a request body is
 * (serve::resolveInputs), then the --pes/--noc-bw/--l1/--l2 hardware
 * overrides.
 */
serve::RequestInputs
resolveCliInputs(const Args &args)
{
    frontend::ParsedFile file;
    if (args.has("file"))
        file = parseDslArg(args.get("file"));
    if (args.has("model")) {
        file.networks.insert(file.networks.begin(),
                             zoo::byName(args.get("model")));
    }
    serve::RequestInputs in = serve::resolveInputs(
        std::move(file), args.query, AcceleratorConfig::paperStudy(),
        kFlag);

    AcceleratorConfig &config = in.config;
    const auto count = [&](const char *flag, Count &field) {
        field = static_cast<Count>(serve::paramCount(
            args.options, flag, static_cast<std::size_t>(field), kFlag));
    };
    count("pes", config.num_pes);
    if (args.has("noc-bw")) {
        config.noc =
            NocModel(serve::paramPositive(args.options, "noc-bw", 0.0, kFlag),
                     config.noc.avgLatency());
    }
    count("l1", config.l1_bytes);
    count("l2", config.l2_bytes);
    config.validate();
    return in;
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

/** analyze's table: one per dataflow, with its totals. */
void
printAnalyze(const serve::RequestInputs &in, const serve::AnalyzeRun &run)
{
    for (std::size_t d = 0; d < in.dataflows.size(); ++d) {
        std::cout << "== dataflow " << in.dataflows[d].name() << " ==\n";
        Table table({"layer", "runtime(cyc)", "MACs/cyc", "util",
                     "energy(MACs)", "L1 req(B)", "L2 req(KB)",
                     "BW req", "bottleneck"});
        double total_runtime = 0.0;
        double total_energy = 0.0;
        for (const LayerAnalysis &la : run.dataflows[d]) {
            total_runtime += la.runtime;
            total_energy += la.onchipEnergy();
            table.addRow(
                {la.layer_name, engFormat(la.runtime),
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
}

/** simulate's table: analytical vs simulated cycles per dataflow. */
void
printSimulate(const serve::RequestInputs &in,
              const serve::SimulateRun &run)
{
    Table table({"dataflow", "analytical(cyc)", "simulated(cyc)",
                 "error(%)", "sim MACs", "sim active PEs",
                 "steps/class"});
    for (std::size_t d = 0; d < in.dataflows.size(); ++d) {
        const SimResult &sim = run.dataflows[d].sim;
        const double runtime = run.dataflows[d].analytical_runtime;
        table.addRow(
            {in.dataflows[d].name(), engFormat(runtime),
             engFormat(sim.cycles),
             fixedFormat(100.0 * (runtime - sim.cycles) / sim.cycles, 2),
             engFormat(sim.macs), fixedFormat(sim.avg_active_pes, 1),
             engFormat(sim.steps) + "/" + engFormat(sim.step_classes)});
    }
    table.print(std::cout);
}

/** dse's table: the sweep summary and its best designs; with --stats
 *  on, its counters. */
void
printDse(const serve::DseRun &run, bool stats,
         const PipelineStats &pipeline)
{
    const dse::DseResult &res = run.result;
    std::cout << "explored " << engFormat(res.explored_points) << " ("
              << engFormat(res.valid_points) << " valid) in "
              << fixedFormat(res.seconds, 2) << " s ("
              << engFormat(res.rate) << " designs/s, "
              << (run.options.exact ? "exact" : "fast") << " sweep)\n";
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
    if (!stats)
        return;
    std::cout << "\ndse: " << engFormat(res.evaluated_points)
              << " evaluated, " << engFormat(res.valid_points)
              << " valid, " << fixedFormat(res.evaluated_pairs, 0)
              << " (PEs,BW) pairs analyzed, frontier "
              << res.frontier_size << " -> " << res.pareto.size()
              << " kept, " << res.samples.size() << " samples\n";
    if (run.options.exact) {
        printPipelineStats(pipeline, res.seconds);
    } else {
        std::cout << "(fast sweep runs the stage engines "
                     "directly; pipeline caches unused)\n";
    }
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

/** tune's table for the run's mode. */
void
printTune(const serve::RequestInputs &in, const serve::TuneRun &run)
{
    const std::string &obj = run.query.objective_name;
    if (const auto *res =
            std::get_if<mapper::NetworkMapperResult>(&run.result)) {
        std::cout << "tuned network " << in.network.name() << " ("
                  << res->unique_shapes << " unique shapes, objective "
                  << obj << ")\n";
        printSearchStats(res->stats);
        Table table({"layer", "best dataflow", "objective", "reused"});
        for (const auto &entry : res->layers) {
            table.addRow({entry.layer, entry.best.dataflow.name(),
                          engFormat(entry.best.objective_value),
                          entry.reused ? "yes" : "no"});
        }
        table.print(std::cout);
        std::cout << "\nper-layer-best total: "
                  << engFormat(res->adaptive_total)
                  << "\nbest single dataflow ("
                  << engFormat(res->best_single.objective_value)
                  << "):\n"
                  << res->best_single.dataflow.toString();
        return;
    }
    if (const auto *res =
            std::get_if<mapper::JointMapperResult>(&run.result)) {
        std::cout << "joint-tuned " << run.layer->name() << " (objective "
                  << obj << ", " << res->designs.size()
                  << " shortlisted mappings, "
                  << engFormat(res->explored_points)
                  << " design points)\n";
        printSearchStats(res->mapping.stats);
        Table table({"dataflow", "PEs", "NoC BW", "objective"});
        for (const auto &d : res->designs) {
            table.addRow({d.mapping.dataflow.name(),
                          std::to_string(d.point.num_pes),
                          fixedFormat(d.point.noc_bandwidth, 1),
                          engFormat(d.objective_value)});
        }
        table.print(std::cout);
        std::cout << "\nwinning mapping (at " << res->best.point.num_pes
                  << " PEs, BW " << res->best.point.noc_bandwidth
                  << "):\n"
                  << res->best.mapping.dataflow.toString();
        return;
    }
    const auto &res = std::get<mapper::MapperResult>(run.result);
    std::cout << "tuned " << run.layer->name() << " (objective " << obj
              << (run.query.options.exact ? ", exhaustive oracle" : "")
              << ")\n";
    printSearchStats(res.stats);
    Table table({"rank", "dataflow", "runtime", "energy", "util"});
    int rank = 1;
    for (const auto &md : res.ranked) {
        table.addRow({std::to_string(rank++), md.dataflow.name(),
                      engFormat(md.runtime), engFormat(md.energy),
                      fixedFormat(md.utilization, 2)});
    }
    table.print(std::cout);
    std::cout << "\nwinning dataflow:\n" << res.best().dataflow.toString();
}

/**
 * analyze, simulate, dse and tune: runs the endpoint's evaluation once
 * on the resolved inputs and the query the flags spell, then prints
 * its JSON body or a table of the same run.
 */
int
cmdAnalysis(const Args &args, bool json)
{
    const std::size_t threads =
        serve::paramCount(args.options, "threads", 1, kFlag);
    const bool stats = args.get("stats", "off") != "off";
    const serve::RequestInputs in = resolveCliInputs(args);
    const auto pipeline = std::make_shared<AnalysisPipeline>();
    const EnergyModel energy;
    const std::string_view command = args.command->name;

    if (command == "analyze") {
        const auto t0 = std::chrono::steady_clock::now();
        const serve::AnalyzeRun run =
            serve::analyzeRun(in, pipeline, energy, threads);
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        if (json) {
            std::cout << serve::analyzeJson(in, run) << "\n";
        } else {
            printAnalyze(in, run);
            if (stats)
                printPipelineStats(pipeline->stats(), seconds);
        }
    } else if (command == "simulate") {
        const serve::SimulateRun run =
            serve::simulateRun(in, args.query, pipeline, energy, kFlag);
        if (json)
            std::cout << serve::simulateJson(in, run) << "\n";
        else
            printSimulate(in, run);
    } else if (command == "dse") {
        const serve::DseRun run = serve::dseRun(
            in, args.query, pipeline, energy, threads, kFlag);
        if (json)
            std::cout << serve::dseJson(in, run) << "\n";
        else
            printDse(run, stats, pipeline->stats());
    } else {
        const serve::TuneRun run = serve::tuneRun(
            in, args.query, pipeline, energy, threads, kFlag);
        if (json)
            std::cout << serve::tuneJson(in, run) << "\n";
        else
            printTune(in, run);
    }
    if (args.has("profile"))
        printProfile(pipeline->stats());
    return kExitOk;
}

int
cmdCrossval(const Args &args, bool json)
{
    crossval::CrossvalOptions options;
    options.threads = serve::paramCount(args.options, "threads", 1, kFlag);
    options.seed = serve::paramCount(
        args.options, "seed", static_cast<std::size_t>(options.seed),
        kFlag, 0);
    options.triples = serve::paramCount(
        args.options, "triples", static_cast<std::size_t>(options.triples),
        kFlag);

    const auto t0 = std::chrono::steady_clock::now();
    const crossval::CrossvalReport report =
        crossval::runCrossval(options);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    if (json) {
        std::cout << crossval::crossvalJson(options, report) << "\n";
    } else {
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
    constexpr std::size_t kIntMax = std::numeric_limits<int>::max();
    const serve::QueryParams &flags = args.options;
    const auto count = [&](const char *flag, std::size_t fallback,
                           std::size_t lo = 1,
                           std::size_t hi =
                               std::numeric_limits<std::size_t>::max()) {
        return serve::paramCount(flags, flag, fallback, kFlag, lo, hi);
    };
    serve::ServeOptions opts;
    opts.host = args.get("host", opts.host.c_str());
    opts.port =
        static_cast<std::uint16_t>(count("port", opts.port, 0, 65535));
    opts.worker_threads = count("threads", opts.worker_threads);
    opts.queue_capacity = count("queue", opts.queue_capacity);
    opts.deadline_ms = static_cast<int>(
        count("deadline-ms", static_cast<std::size_t>(opts.deadline_ms), 1,
              kIntMax));
    opts.max_connections = count("max-connections", opts.max_connections);
    opts.job_capacity = count("jobs", opts.job_capacity);
    opts.jobs_per_client = count("jobs-per-client", opts.jobs_per_client, 0);
    opts.client_share = count("client-share", opts.client_share, 0);
    opts.result_cache_entries =
        count("cache-entries", opts.result_cache_entries, 0);
    opts.result_cache_bytes = count("cache-bytes", opts.result_cache_bytes, 0);
    opts.drain_linger_ms = static_cast<int>(
        count("drain-linger-ms",
              static_cast<std::size_t>(opts.drain_linger_ms), 0, kIntMax));
    opts.client_weights = parseClientWeights(args.get("client-weights"));
    opts.access_log = args.get("access-log", opts.access_log.c_str());
    opts.access_log_max_bytes =
        count("access-log-max-bytes", opts.access_log_max_bytes, 0);
    opts.events_ring = count("events-ring", opts.events_ring, 0);
    opts.metrics_max_clients =
        count("metrics-max-clients", opts.metrics_max_clients, 0);

    const std::size_t workers = count("workers", 1);
    const int status_port =
        args.has("status-port")
            ? static_cast<int>(count("status-port", 0, 0, 65535))
            : -1;
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
    const std::string_view name = argv[1];
    if (name == "--version" || name == "version") {
        std::cout << "maestro " << kVersion << "\n";
        return kExitOk;
    }
    const Command *command = nullptr;
    for (const Command &c : kCommands) {
        if (c.name == name)
            command = &c;
    }
    if (command == nullptr) {
        std::cerr << "error: unknown command '" << name << "'\n"
                  << kUsage;
        return kExitUsage;
    }
    try {
        const Args args = parseArgs(*command, argc, argv);
        const std::string format = args.get("format", "table");
        fatalIf(format != "table" && format != "json",
                "--format must be table or json");

        // Observability opt-ins, enabled before any analysis work:
        // --profile records site latencies, --trace additionally
        // captures spans for Chrome trace export. Neither changes
        // the command's stdout bytes.
        const std::string trace_path = args.get("trace");
        if (args.has("profile"))
            obs::enableMode(obs::kTiming);
        if (!trace_path.empty())
            obs::Tracer::instance().start();

        const int rc = command->analysis ? cmdAnalysis(args, format == "json")
                       : name == "crossval"
                           ? cmdCrossval(args, format == "json")
                           : cmdServe(args);

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
