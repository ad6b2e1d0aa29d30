#include "src/serve/handlers.hh"

#include <algorithm>
#include <exception>
#include <limits>
#include <utility>

#include "src/common/error.hh"
#include "src/common/json.hh"
#include "src/common/thread_pool.hh"
#include "src/common/version.hh"
#include "src/dataflows/catalog.hh"
#include "src/dse/explorer.hh"
#include "src/mapper/mapper.hh"
#include "src/sim/crossval.hh"

namespace maestro
{
namespace serve
{

namespace
{

/** Query-parameter switch: on when `on`, off when absent, a clean
 *  Error for any other value. */
bool
paramSwitch(const QueryParams &params, const std::string &key)
{
    const auto it = params.find(key);
    if (it == params.end())
        return false;
    fatalIf(it->second != "on", "query parameter '", key,
            "' must be 'on' or absent, found '", it->second, "'");
    return true;
}

/** Writes one LayerAnalysis as an object member sequence. */
void
writeLayerAnalysis(JsonWriter &w, const LayerAnalysis &la)
{
    w.beginObject();
    w.key("layer").value(la.layer_name);
    w.key("runtime").value(la.runtime);
    w.key("total_macs").value(la.total_macs);
    w.key("throughput").value(la.throughput);
    w.key("active_pes").value(la.active_pes);
    w.key("utilization").value(la.utilization);
    w.key("noc_bw_requirement").value(la.noc_bw_requirement);
    w.key("bottleneck").value(la.bottleneck);
    w.key("onchip_energy").value(la.onchipEnergy());
    w.key("total_energy").value(la.energy());
    w.key("edp").value(la.edp());
    w.key("l1_bytes_required").value(la.cost.l1_bytes_required);
    w.key("l2_bytes_required").value(la.cost.l2_bytes_required);
    w.endObject();
}

/** Writes one DSE design point. */
void
writeDesignPoint(JsonWriter &w, const char *name,
                 const dse::DesignPoint &p)
{
    w.key(name).beginObject();
    w.key("num_pes").value(static_cast<std::int64_t>(p.num_pes));
    w.key("l1_bytes").value(static_cast<std::int64_t>(p.l1_bytes));
    w.key("l2_bytes").value(static_cast<std::int64_t>(p.l2_bytes));
    w.key("noc_bandwidth").value(p.noc_bandwidth);
    w.key("area").value(p.area);
    w.key("power").value(p.power);
    w.key("runtime").value(p.runtime);
    w.key("throughput").value(p.throughput);
    w.key("energy").value(p.energy);
    w.key("edp").value(p.edp);
    w.key("valid").value(p.valid);
    w.endObject();
}

/** The knob `key` as the caller spells it: `query parameter 'top_k'`
 *  or `--top-k`. */
std::string
knobName(const std::string &key, KnobSpelling spelling)
{
    if (spelling == KnobSpelling::Query)
        return msg("query parameter '", key, "'");
    std::string flag = "--" + key;
    std::replace(flag.begin(), flag.end(), '_', '-');
    return flag;
}

/** Comma-separated Count list (e.g. ?clusters=1,4,16). */
std::vector<Count>
paramCountList(const QueryParams &params, const std::string &key,
               std::vector<Count> fallback, KnobSpelling spelling)
{
    const auto it = params.find(key);
    if (it == params.end())
        return fallback;
    std::vector<Count> out;
    const std::string_view v = it->second;
    std::size_t pos = 0;
    while (pos <= v.size()) {
        const std::size_t comma = std::min(v.find(',', pos), v.size());
        const std::optional<Count> entry =
            parseNumber<Count>(v.substr(pos, comma - pos));
        fatalIf(!entry || *entry < 1, knobName(key, spelling), ": '", v,
                "' is not a comma-separated list of positive integers");
        out.push_back(*entry);
        pos = comma + 1;
    }
    return out;
}

/** The ?area= and ?power= budgets of /dse and /tune (DseOptions's
 *  defaults when absent), the other options at their defaults. */
dse::DseOptions
dseBudgets(const QueryParams &params, KnobSpelling spelling)
{
    dse::DseOptions options;
    options.area_budget_mm2 =
        paramPositive(params, "area", options.area_budget_mm2, spelling);
    options.power_budget_mw =
        paramPositive(params, "power", options.power_budget_mw, spelling);
    return options;
}

/** Writes the mapper's search accounting (no wall-clock fields —
 *  responses must stay byte-reproducible). */
void
writeSearchStats(JsonWriter &w, const mapper::MapperStats &stats)
{
    w.key("search").beginObject();
    w.key("covered").value(stats.covered);
    w.key("generated").value(static_cast<std::uint64_t>(stats.generated));
    w.key("pruned_symmetry")
        .value(static_cast<std::uint64_t>(stats.pruned_symmetry));
    w.key("pruned_capacity")
        .value(static_cast<std::uint64_t>(stats.pruned_capacity));
    w.key("pruned_bound")
        .value(static_cast<std::uint64_t>(stats.pruned_bound));
    w.key("evaluated")
        .value(static_cast<std::uint64_t>(stats.evaluated));
    w.key("rejected")
        .value(static_cast<std::uint64_t>(stats.rejected));
    w.endObject();
}

/** Writes one ranked mapping (an object, no surrounding key). */
void
writeMappedDataflow(JsonWriter &w, const mapper::MappedDataflow &md)
{
    w.beginObject();
    w.key("dataflow").value(md.dataflow.name());
    w.key("runtime").value(md.runtime);
    w.key("energy").value(md.energy);
    w.key("edp").value(md.edp);
    w.key("utilization").value(md.utilization);
    w.key("objective_value").value(md.objective_value);
    w.endObject();
}

} // namespace

std::size_t
paramCount(const QueryParams &params, const std::string &key,
           std::size_t fallback, KnobSpelling spelling, std::size_t lo,
           std::size_t hi)
{
    const auto it = params.find(key);
    if (it == params.end())
        return fallback;
    const std::optional<std::size_t> v =
        parseNumber<std::size_t>(it->second);
    if (v && *v >= lo && *v <= hi)
        return *v;
    if (hi != std::numeric_limits<std::size_t>::max())
        throw Error(msg(knobName(key, spelling),
                        " must be an integer in [", lo, ", ", hi, "]"));
    throw Error(msg(knobName(key, spelling), " must be ",
                    lo == 0 ? "a non-negative" : "a positive",
                    " integer"));
}

double
paramPositive(const QueryParams &params, const std::string &key,
              double fallback, KnobSpelling spelling)
{
    const auto it = params.find(key);
    if (it == params.end())
        return fallback;
    const std::optional<double> v = parsePositive(it->second);
    fatalIf(!v, knobName(key, spelling),
            " must be a positive number, found '", it->second, "'");
    return *v;
}

const Layer &
singleLayer(const RequestInputs &in, const char *endpoint,
            KnobSpelling spelling)
{
    if (in.layer_name)
        return in.network.layer(*in.layer_name);
    fatalIf(in.network.layers().size() != 1, endpoint, " needs ",
            spelling == KnobSpelling::Query ? "?layer=NAME"
                                            : "--layer NAME",
            " when the network has ", in.network.layers().size(),
            " layers");
    return in.network.layers().front();
}

TuneQuery
tuneQuery(const QueryParams &params, std::size_t worker_threads,
          KnobSpelling spelling)
{
    TuneQuery query;
    const auto obj_it = params.find("objective");
    if (obj_it != params.end())
        query.objective_name = obj_it->second;
    const std::string &obj = query.objective_name;
    if (obj == "energy")
        query.objective = mapper::Objective::Energy;
    else if (obj == "edp")
        query.objective = mapper::Objective::Edp;
    else
        fatalIf(obj != "runtime",
                "objective must be runtime, energy, or edp; got '", obj,
                "'");

    const auto mode_it = params.find("mode");
    if (mode_it != params.end())
        query.mode = mode_it->second;
    fatalIf(query.mode != "layer" && query.mode != "network" &&
                query.mode != "joint",
            "mode must be layer, network, or joint; got '", query.mode,
            "'");

    mapper::MapperOptions &options = query.options;
    options.top_k = paramCount(params, "top_k", options.top_k, spelling);
    options.enforce_l1_capacity = paramSwitch(params, "enforce_l1");
    options.exact = paramSwitch(params, "exact");
    const std::size_t budget = std::max<std::size_t>(worker_threads, 1);
    options.num_threads =
        std::min(budget, paramCount(params, "threads", budget, spelling));
    options.space.cluster_sizes = paramCountList(
        params, "clusters", options.space.cluster_sizes, spelling);
    options.space.channel_tiles = paramCountList(
        params, "tiles", options.space.channel_tiles, spelling);
    options.space.activation_tiles = paramCountList(
        params, "act_tiles", options.space.activation_tiles, spelling);
    return query;
}

RequestInputs
resolveInputs(frontend::ParsedFile file, const QueryParams &params,
              const AcceleratorConfig &default_config,
              KnobSpelling spelling)
{
    fatalIf(file.networks.empty(),
            spelling == KnobSpelling::Query
                ? "request body defines no Network block"
                : "provide --model <zoo-name> or --file with a Network "
                  "block");
    RequestInputs in;
    in.network = std::move(file.networks.front());

    const auto layer_it = params.find("layer");
    if (layer_it != params.end())
        in.layer_name = layer_it->second;

    const auto df_it = params.find("dataflow");
    if (df_it != params.end()) {
        const auto file_df = file.dataflows.find(df_it->second);
        in.dataflows.push_back(file_df != file.dataflows.end()
                                   ? std::move(file_df->second)
                                   : dataflows::byName(df_it->second));
    } else if (!file.dataflows.empty()) {
        for (auto &[name, df] : file.dataflows)
            in.dataflows.push_back(std::move(df));
    } else {
        in.dataflows = dataflows::table3();
    }

    in.config = file.accelerator ? *file.accelerator : default_config;
    in.config.validate();
    return in;
}

RequestInputs
resolveRequest(const std::string &dsl, const QueryParams &params,
               const AcceleratorConfig &default_config)
{
    fatalIf(dsl.empty(), "empty request body (expected MAESTRO DSL)");
    return resolveInputs(frontend::parseString(dsl), params,
                         default_config);
}

AnalyzeRun
analyzeRun(const RequestInputs &inputs,
           const std::shared_ptr<AnalysisPipeline> &pipeline,
           const EnergyModel &energy, std::size_t num_threads)
{
    const Analyzer analyzer(inputs.config, energy, pipeline);
    std::vector<const Layer *> layers;
    if (inputs.layer_name) {
        layers.push_back(&inputs.network.layer(*inputs.layer_name));
    } else {
        for (const Layer &l : inputs.network.layers())
            layers.push_back(&l);
    }

    AnalyzeRun run;
    run.dataflows.resize(inputs.dataflows.size());
    if (num_threads <= 1) {
        for (std::size_t d = 0; d < inputs.dataflows.size(); ++d) {
            run.dataflows[d].reserve(layers.size());
            for (const Layer *layer : layers) {
                run.dataflows[d].push_back(
                    analyzer.analyzeLayer(*layer, inputs.dataflows[d]));
            }
        }
        return run;
    }

    // Each (dataflow, layer) job writes its own slot, so the analyses
    // and the error reported are the serial loop's at any thread count.
    const std::size_t n = layers.size();
    for (std::vector<LayerAnalysis> &row : run.dataflows)
        row.resize(n);
    std::vector<std::exception_ptr> errors(inputs.dataflows.size() * n);
    ThreadPool::run(num_threads, errors.size(), [&](std::size_t i) {
        try {
            run.dataflows[i / n][i % n] = analyzer.analyzeLayer(
                *layers[i % n], inputs.dataflows[i / n]);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    });
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return run;
}

std::string
analyzeJson(const RequestInputs &inputs, const AnalyzeRun &run)
{
    JsonWriter w;
    w.beginObject();
    w.key("endpoint").value("analyze");
    w.key("network").value(inputs.network.name());
    w.key("dataflows").beginArray();
    for (std::size_t d = 0; d < inputs.dataflows.size(); ++d) {
        w.beginObject();
        w.key("dataflow").value(inputs.dataflows[d].name());
        double total_runtime = 0.0;
        double total_onchip_energy = 0.0;
        double total_macs = 0.0;
        w.key("layers").beginArray();
        for (const LayerAnalysis &la : run.dataflows[d]) {
            total_runtime += la.runtime;
            total_onchip_energy += la.onchipEnergy();
            total_macs += la.total_macs;
            writeLayerAnalysis(w, la);
        }
        w.endArray();
        w.key("totals").beginObject();
        w.key("runtime").value(total_runtime);
        w.key("onchip_energy").value(total_onchip_energy);
        w.key("total_macs").value(total_macs);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
analyzeJson(const RequestInputs &inputs,
            const std::shared_ptr<AnalysisPipeline> &pipeline,
            const EnergyModel &energy)
{
    return analyzeJson(inputs, analyzeRun(inputs, pipeline, energy));
}

DseRun
dseRun(const RequestInputs &inputs, const QueryParams &params,
       const std::shared_ptr<AnalysisPipeline> &pipeline,
       const EnergyModel &energy, std::size_t num_threads,
       KnobSpelling spelling)
{
    fatalIf(inputs.dataflows.size() != 1,
            "dse needs exactly one dataflow, got ", inputs.dataflows.size(),
            spelling == KnobSpelling::Query
                ? " (name one with ?dataflow=NAME)"
                : " (name one with --dataflow NAME)");
    DseRun run;
    run.layer = &singleLayer(inputs, "dse", spelling);
    run.options = dseBudgets(params, spelling);
    run.options.exact = paramSwitch(params, "exact");
    run.options.num_threads = num_threads;
    const dse::Explorer explorer(inputs.config, AreaPowerModel(), energy,
                                 pipeline);
    run.result = explorer.explore(*run.layer, inputs.dataflows.front(),
                                  dse::DesignSpace::figure13(),
                                  run.options);
    return run;
}

std::string
dseJson(const RequestInputs &inputs, const DseRun &run)
{
    const dse::DseResult &res = run.result;
    JsonWriter w;
    w.beginObject();
    w.key("endpoint").value("dse");
    w.key("layer").value(run.layer->name());
    w.key("dataflow").value(inputs.dataflows.front().name());
    w.key("explored_points").value(res.explored_points);
    w.key("evaluated_points").value(res.evaluated_points);
    w.key("valid_points").value(res.valid_points);
    w.key("frontier_size")
        .value(static_cast<std::uint64_t>(res.frontier_size));
    w.key("pareto_kept")
        .value(static_cast<std::uint64_t>(res.pareto.size()));
    writeDesignPoint(w, "best_throughput", res.best_throughput);
    writeDesignPoint(w, "best_energy", res.best_energy);
    writeDesignPoint(w, "best_edp", res.best_edp);
    w.endObject();
    return w.str();
}

std::string
dseJson(const RequestInputs &inputs, const QueryParams &params,
        const std::shared_ptr<AnalysisPipeline> &pipeline,
        const EnergyModel &energy)
{
    return dseJson(inputs, dseRun(inputs, params, pipeline, energy));
}

TuneRun
tuneRun(const RequestInputs &inputs, const QueryParams &params,
        const std::shared_ptr<AnalysisPipeline> &pipeline,
        const EnergyModel &energy, std::size_t worker_threads,
        KnobSpelling spelling)
{
    TuneRun run;
    run.query = tuneQuery(params, worker_threads, spelling);
    dse::DseOptions dse_options = dseBudgets(params, spelling);
    const mapper::MapperOptions &options = run.query.options;
    const Analyzer analyzer(inputs.config, energy, pipeline);
    if (run.query.mode == "network") {
        run.result = mapper::mapNetwork(analyzer, inputs.network,
                                        run.query.objective, options);
        return run;
    }
    run.layer = &singleLayer(inputs, "tune", spelling);
    if (run.query.mode == "joint") {
        dse_options.num_threads = options.num_threads;
        run.result = mapper::mapJoint(analyzer, *run.layer,
                                      run.query.objective,
                                      dse::DesignSpace::figure13(),
                                      dse_options, options);
    } else {
        run.result = mapper::mapLayer(analyzer, *run.layer,
                                      run.query.objective, options);
    }
    return run;
}

std::string
tuneJson(const RequestInputs &inputs, const TuneRun &run)
{
    JsonWriter w;
    w.beginObject();
    w.key("endpoint").value("tune");
    w.key("mode").value(run.query.mode);

    if (const auto *res =
            std::get_if<mapper::NetworkMapperResult>(&run.result)) {
        w.key("network").value(inputs.network.name());
        w.key("objective").value(run.query.objective_name);
        w.key("unique_shapes")
            .value(static_cast<std::uint64_t>(res->unique_shapes));
        w.key("adaptive_total").value(res->adaptive_total);
        writeSearchStats(w, res->stats);
        w.key("layers").beginArray();
        for (const mapper::NetworkLayerBest &entry : res->layers) {
            w.beginObject();
            w.key("layer").value(entry.layer);
            w.key("reused").value(entry.reused);
            w.key("best");
            writeMappedDataflow(w, entry.best);
            w.endObject();
        }
        w.endArray();
        const mapper::NetworkDataflowScore &single = res->best_single;
        w.key("best_single").beginObject();
        w.key("dataflow").value(single.dataflow.name());
        w.key("runtime").value(single.runtime);
        w.key("energy").value(single.energy);
        w.key("edp").value(single.edp);
        w.key("objective_value").value(single.objective_value);
        w.endObject();
        w.key("winner").value(single.dataflow.toString());
    } else if (const auto *res =
                   std::get_if<mapper::JointMapperResult>(&run.result)) {
        w.key("layer").value(run.layer->name());
        w.key("objective").value(run.query.objective_name);
        writeSearchStats(w, res->mapping.stats);
        w.key("explored_points").value(res->explored_points);
        w.key("valid_points").value(res->valid_points);
        w.key("designs").beginArray();
        for (const mapper::JointDesign &d : res->designs) {
            w.beginObject();
            w.key("dataflow").value(d.mapping.dataflow.name());
            w.key("objective_value").value(d.objective_value);
            writeDesignPoint(w, "point", d.point);
            w.endObject();
        }
        w.endArray();
        w.key("best").beginObject();
        w.key("dataflow").value(res->best.mapping.dataflow.name());
        w.key("objective_value").value(res->best.objective_value);
        writeDesignPoint(w, "point", res->best.point);
        w.endObject();
        w.key("winner").value(res->best.mapping.dataflow.toString());
    } else {
        const auto &layer_res = std::get<mapper::MapperResult>(run.result);
        w.key("layer").value(run.layer->name());
        w.key("objective").value(run.query.objective_name);
        writeSearchStats(w, layer_res.stats);
        w.key("ranked").beginArray();
        for (const mapper::MappedDataflow &md : layer_res.ranked)
            writeMappedDataflow(w, md);
        w.endArray();
        w.key("winner").value(layer_res.best().dataflow.toString());
    }
    w.endObject();
    return w.str();
}

SimulateRun
simulateRun(const RequestInputs &inputs, const QueryParams &params,
            const std::shared_ptr<AnalysisPipeline> &pipeline,
            const EnergyModel &energy, KnobSpelling spelling)
{
    SimulateRun run;
    run.layer = &singleLayer(inputs, "simulate", spelling);
    run.options.exact = paramSwitch(params, "exact");
    run.options.max_steps = paramPositive(params, "max_steps",
                                          run.options.max_steps, spelling);

    const Analyzer analyzer(inputs.config, energy, pipeline);
    run.dataflows.reserve(inputs.dataflows.size());
    for (const Dataflow &df : inputs.dataflows) {
        SimResult sim =
            simulateLayer(*run.layer, df, inputs.config, run.options);
        run.dataflows.push_back(
            {sim, analyzer.analyzeLayer(*run.layer, df).runtime});
    }
    return run;
}

std::string
simulateJson(const RequestInputs &inputs, const SimulateRun &run)
{
    JsonWriter w;
    w.beginObject();
    w.key("endpoint").value("simulate");
    w.key("layer").value(run.layer->name());
    w.key("mode").value(run.options.exact ? "exact" : "periodic");
    w.key("dataflows").beginArray();
    for (std::size_t d = 0; d < inputs.dataflows.size(); ++d) {
        const SimResult &sim = run.dataflows[d].sim;
        const double runtime = run.dataflows[d].analytical_runtime;
        w.beginObject();
        w.key("dataflow").value(inputs.dataflows[d].name());
        w.key("cycles").value(sim.cycles);
        w.key("steps").value(sim.steps);
        w.key("step_classes").value(sim.step_classes);
        w.key("macs").value(sim.macs);
        w.key("avg_active_pes").value(sim.avg_active_pes);
        w.key("l2_supply").beginObject();
        w.key("weight").value(sim.l2_supply[TensorKind::Weight]);
        w.key("input").value(sim.l2_supply[TensorKind::Input]);
        w.endObject();
        w.key("output_commits").value(sim.output_commits);
        w.key("dram_fill").beginObject();
        w.key("weight").value(sim.dram_fill[TensorKind::Weight]);
        w.key("input").value(sim.dram_fill[TensorKind::Input]);
        w.endObject();
        w.key("dram_busy").value(sim.dram_busy);
        w.key("noc_busy").value(sim.noc_busy);
        w.key("compute_cycles").value(sim.compute_cycles);
        w.key("analytical_runtime").value(runtime);
        w.key("runtime_error")
            .value(sim.cycles > 0.0 ? (runtime - sim.cycles) / sim.cycles
                                    : 0.0);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
simulateJson(const RequestInputs &inputs, const QueryParams &params,
             const std::shared_ptr<AnalysisPipeline> &pipeline,
             const EnergyModel &energy)
{
    return simulateJson(inputs,
                        simulateRun(inputs, params, pipeline, energy));
}

std::string
crossvalRunJson(const QueryParams &params,
                std::size_t worker_threads)
{
    crossval::CrossvalOptions options;
    options.seed = static_cast<std::uint64_t>(
        paramCount(params, "seed", static_cast<std::size_t>(options.seed),
                   KnobSpelling::Query, 0));
    options.triples = static_cast<std::uint64_t>(
        paramCount(params, "triples", 100, KnobSpelling::Query, 1,
                   kMaxCrossvalTriples));
    // The report is byte-identical at any thread count, so capping
    // by the server's worker budget never changes response bytes.
    const std::size_t budget = std::max<std::size_t>(1, worker_threads);
    options.threads =
        std::min<std::size_t>(budget, paramCount(params, "threads", 1));
    options.max_steps =
        paramPositive(params, "max_steps", options.max_steps);
    const crossval::CrossvalReport report =
        crossval::runCrossval(options);
    return crossval::crossvalJson(options, report);
}

std::string
healthzJson(bool draining)
{
    JsonWriter w;
    w.beginObject();
    w.key("status").value(draining ? "draining" : "ok");
    w.key("version").value(kVersion);
    w.endObject();
    return w.str();
}

std::string
errorJson(std::string_view message)
{
    JsonWriter w;
    w.beginObject();
    w.key("error").value(message);
    w.endObject();
    return w.str();
}

} // namespace serve
} // namespace maestro
