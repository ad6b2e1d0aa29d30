#include "src/serve/handlers.hh"

#include <charconv>
#include <utility>

#include "src/common/error.hh"
#include "src/common/json.hh"
#include "src/common/version.hh"
#include "src/dataflows/catalog.hh"
#include "src/dse/explorer.hh"
#include "src/mapper/mapper.hh"
#include "src/frontend/parser.hh"
#include "src/sim/crossval.hh"
#include "src/sim/reference_sim.hh"

namespace maestro
{
namespace serve
{

namespace
{

/** Query-parameter double with a clean Error on garbage. */
double
paramDouble(const QueryParams &params, const std::string &key,
            double fallback)
{
    const auto it = params.find(key);
    if (it == params.end())
        return fallback;
    const std::string &v = it->second;
    double out = 0.0;
    const auto res =
        std::from_chars(v.data(), v.data() + v.size(), out);
    fatalIf(res.ec != std::errc() || res.ptr != v.data() + v.size(), "query parameter '", key, "': '", v,
                "' is not a number");
    return out;
}

/** The layers a request operates on (borrowed from the network). */
std::vector<const Layer *>
selectLayers(const RequestInputs &in)
{
    std::vector<const Layer *> out;
    if (in.layer_name) {
        out.push_back(&in.network.layer(*in.layer_name));
    } else {
        for (const Layer &l : in.network.layers())
            out.push_back(&l);
    }
    return out;
}

/** The single layer dse/tune operate on. */
const Layer &
singleLayer(const RequestInputs &in, const char *endpoint)
{
    if (in.layer_name)
        return in.network.layer(*in.layer_name);
    fatalIf(in.network.layers().size() != 1, endpoint, " needs ?layer=NAME when the network has ",
                in.network.layers().size(), " layers");
    return in.network.layers().front();
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

/** Query-parameter count (positive integer) with a clean Error. */
std::size_t
paramCount(const QueryParams &params, const std::string &key,
           std::size_t fallback)
{
    const auto it = params.find(key);
    if (it == params.end())
        return fallback;
    const std::optional<std::size_t> v = parseCount(it->second);
    fatalIf(!v || *v < 1, "query parameter '", key,
            "' must be a positive integer");
    return *v;
}

/** Comma-separated Count list (e.g. ?clusters=1,4,16). */
std::vector<Count>
paramCountList(const QueryParams &params, const std::string &key,
               std::vector<Count> fallback)
{
    const auto it = params.find(key);
    if (it == params.end())
        return fallback;
    std::vector<Count> out;
    const std::string &v = it->second;
    std::size_t pos = 0;
    while (pos <= v.size()) {
        const std::size_t comma = std::min(v.find(',', pos), v.size());
        Count entry = 0;
        const auto res = std::from_chars(v.data() + pos,
                                         v.data() + comma, entry);
        fatalIf(res.ec != std::errc() || res.ptr != v.data() + comma ||
                    entry < 1, "query parameter '", key, "': '", v,
                    "' is not a comma-separated list of positive "
                    "integers");
        out.push_back(entry);
        pos = comma + 1;
    }
    return out;
}

/** Mapper options resolved from query knobs + the worker budget. */
mapper::MapperOptions
mapperOptions(const QueryParams &params, std::size_t worker_threads)
{
    mapper::MapperOptions options;
    options.top_k = paramCount(params, "top_k", options.top_k);
    options.enforce_l1_capacity = params.count("enforce_l1") > 0;
    options.exact = params.count("exact") > 0;
    const std::size_t budget = std::max<std::size_t>(worker_threads, 1);
    options.num_threads =
        std::min(budget, paramCount(params, "threads", budget));
    options.space.cluster_sizes = paramCountList(
        params, "clusters", options.space.cluster_sizes);
    options.space.channel_tiles = paramCountList(
        params, "tiles", options.space.channel_tiles);
    options.space.activation_tiles = paramCountList(
        params, "act_tiles", options.space.activation_tiles);
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

RequestInputs
resolveRequest(const std::string &dsl, const QueryParams &params,
               const AcceleratorConfig &default_config)
{
    fatalIf(dsl.empty(), "empty request body (expected MAESTRO DSL)");
    const frontend::ParsedFile file = frontend::parseString(dsl);

    RequestInputs in;
    in.config = default_config;
    fatalIf(file.networks.empty(),
            "request body defines no Network block");
    in.network = file.networks.front();

    const auto layer_it = params.find("layer");
    if (layer_it != params.end())
        in.layer_name = layer_it->second;

    const auto df_it = params.find("dataflow");
    if (df_it != params.end()) {
        const std::string &name = df_it->second;
        if (file.dataflows.count(name))
            in.dataflows.push_back(file.dataflows.at(name));
        else
            in.dataflows.push_back(dataflows::byName(name));
    } else if (!file.dataflows.empty()) {
        for (const auto &[name, df] : file.dataflows)
            in.dataflows.push_back(df);
    } else {
        in.dataflows = dataflows::table3();
    }

    if (file.accelerator)
        in.config = *file.accelerator;
    in.config.validate();
    return in;
}

std::string
analyzeJson(const RequestInputs &inputs,
            const std::shared_ptr<AnalysisPipeline> &pipeline,
            const EnergyModel &energy)
{
    const Analyzer analyzer(inputs.config, energy, pipeline);
    const std::vector<const Layer *> layers = selectLayers(inputs);

    JsonWriter w;
    w.beginObject();
    w.key("endpoint").value("analyze");
    w.key("network").value(inputs.network.name());
    w.key("dataflows").beginArray();
    for (const Dataflow &df : inputs.dataflows) {
        w.beginObject();
        w.key("dataflow").value(df.name());
        double total_runtime = 0.0;
        double total_onchip_energy = 0.0;
        double total_macs = 0.0;
        w.key("layers").beginArray();
        for (const Layer *layer : layers) {
            const LayerAnalysis la = analyzer.analyzeLayer(*layer, df);
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
dseJson(const RequestInputs &inputs, const QueryParams &params,
        const std::shared_ptr<AnalysisPipeline> &pipeline,
        const EnergyModel &energy)
{
    fatalIf(inputs.dataflows.size() != 1, "dse needs exactly one dataflow, got ",
                inputs.dataflows.size(),
                " (name one with ?dataflow=NAME)");
    const Layer &layer = singleLayer(inputs, "dse");

    dse::DseOptions options;
    options.area_budget_mm2 = paramDouble(params, "area", 16.0);
    options.power_budget_mw = paramDouble(params, "power", 450.0);
    options.exact = params.count("exact") > 0;
    const dse::Explorer explorer(inputs.config, AreaPowerModel(),
                                 energy, pipeline);
    const dse::DseResult res =
        explorer.explore(layer, inputs.dataflows.front(),
                         dse::DesignSpace::figure13(), options);

    JsonWriter w;
    w.beginObject();
    w.key("endpoint").value("dse");
    w.key("layer").value(layer.name());
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
tuneJson(const RequestInputs &inputs, const QueryParams &params,
         const std::shared_ptr<AnalysisPipeline> &pipeline,
         const EnergyModel &energy, std::size_t worker_threads)
{
    const auto obj_it = params.find("objective");
    const std::string obj =
        obj_it == params.end() ? "runtime" : obj_it->second;
    mapper::Objective objective = mapper::Objective::Runtime;
    if (obj == "energy")
        objective = mapper::Objective::Energy;
    else if (obj == "edp")
        objective = mapper::Objective::Edp;
    else
        fatalIf(obj != "runtime", "objective must be runtime, energy, or edp; got '",
                    obj, "'");

    const auto mode_it = params.find("mode");
    const std::string mode =
        mode_it == params.end() ? "layer" : mode_it->second;
    fatalIf(mode != "layer" && mode != "network" && mode != "joint", "mode must be layer, network, or joint; got '", mode,
                "'");

    const mapper::MapperOptions options =
        mapperOptions(params, worker_threads);
    const Analyzer analyzer(inputs.config, energy, pipeline);

    JsonWriter w;
    w.beginObject();
    w.key("endpoint").value("tune");
    w.key("mode").value(mode);

    if (mode == "network") {
        const mapper::NetworkMapperResult res = mapper::mapNetwork(
            analyzer, inputs.network, objective, options);
        w.key("network").value(inputs.network.name());
        w.key("objective").value(obj);
        w.key("unique_shapes")
            .value(static_cast<std::uint64_t>(res.unique_shapes));
        w.key("adaptive_total").value(res.adaptive_total);
        writeSearchStats(w, res.stats);
        w.key("layers").beginArray();
        for (const mapper::NetworkLayerBest &entry : res.layers) {
            w.beginObject();
            w.key("layer").value(entry.layer);
            w.key("reused").value(entry.reused);
            w.key("best");
            writeMappedDataflow(w, entry.best);
            w.endObject();
        }
        w.endArray();
        w.key("best_single").beginObject();
        w.key("dataflow").value(res.best_single.dataflow.name());
        w.key("runtime").value(res.best_single.runtime);
        w.key("energy").value(res.best_single.energy);
        w.key("edp").value(res.best_single.edp);
        w.key("objective_value")
            .value(res.best_single.objective_value);
        w.endObject();
        w.key("winner").value(res.best_single.dataflow.toString());
    } else if (mode == "joint") {
        const Layer &layer = singleLayer(inputs, "tune");
        dse::DseOptions dse_options;
        dse_options.area_budget_mm2 =
            paramDouble(params, "area", 16.0);
        dse_options.power_budget_mw =
            paramDouble(params, "power", 450.0);
        dse_options.num_threads = options.num_threads;
        const mapper::JointMapperResult res =
            mapper::mapJoint(analyzer, layer, objective,
                             dse::DesignSpace::figure13(),
                             dse_options, options);
        w.key("layer").value(layer.name());
        w.key("objective").value(obj);
        writeSearchStats(w, res.mapping.stats);
        w.key("explored_points").value(res.explored_points);
        w.key("valid_points").value(res.valid_points);
        w.key("designs").beginArray();
        for (const mapper::JointDesign &d : res.designs) {
            w.beginObject();
            w.key("dataflow").value(d.mapping.dataflow.name());
            w.key("objective_value").value(d.objective_value);
            writeDesignPoint(w, "point", d.point);
            w.endObject();
        }
        w.endArray();
        w.key("best").beginObject();
        w.key("dataflow").value(res.best.mapping.dataflow.name());
        w.key("objective_value").value(res.best.objective_value);
        writeDesignPoint(w, "point", res.best.point);
        w.endObject();
        w.key("winner").value(res.best.mapping.dataflow.toString());
    } else {
        const Layer &layer = singleLayer(inputs, "tune");
        const mapper::MapperResult res =
            mapper::mapLayer(analyzer, layer, objective, options);
        w.key("layer").value(layer.name());
        w.key("objective").value(obj);
        writeSearchStats(w, res.stats);
        w.key("ranked").beginArray();
        for (const mapper::MappedDataflow &md : res.ranked)
            writeMappedDataflow(w, md);
        w.endArray();
        w.key("winner").value(res.best().dataflow.toString());
    }
    w.endObject();
    return w.str();
}

std::string
simulateJson(const RequestInputs &inputs, const QueryParams &params,
             const std::shared_ptr<AnalysisPipeline> &pipeline,
             const EnergyModel &energy)
{
    const Layer &layer = singleLayer(inputs, "simulate");

    SimOptions options;
    options.exact = params.count("exact") > 0;
    options.max_steps =
        paramDouble(params, "max_steps", options.max_steps);
    fatalIf(options.max_steps <= 0.0,
            "query parameter 'max_steps' must be positive");

    const Analyzer analyzer(inputs.config, energy, pipeline);

    JsonWriter w;
    w.beginObject();
    w.key("endpoint").value("simulate");
    w.key("layer").value(layer.name());
    w.key("mode").value(options.exact ? "exact" : "periodic");
    w.key("dataflows").beginArray();
    for (const Dataflow &df : inputs.dataflows) {
        const SimResult sim =
            simulateLayer(layer, df, inputs.config, options);
        const LayerAnalysis la = analyzer.analyzeLayer(layer, df);
        w.beginObject();
        w.key("dataflow").value(df.name());
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
        w.key("analytical_runtime").value(la.runtime);
        w.key("runtime_error").value(
            sim.cycles > 0.0
                ? (la.runtime - sim.cycles) / sim.cycles
                : 0.0);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
crossvalRunJson(const QueryParams &params,
                std::size_t worker_threads)
{
    crossval::CrossvalOptions options;
    options.seed = static_cast<std::uint64_t>(
        paramCount(params, "seed", static_cast<Count>(options.seed)));
    options.triples = static_cast<std::uint64_t>(
        paramCount(params, "triples", 100));
    // The report is byte-identical at any thread count, so capping
    // by the server's worker budget never changes response bytes.
    const std::size_t budget = std::max<std::size_t>(1, worker_threads);
    options.threads = std::min<std::size_t>(
        budget, static_cast<std::size_t>(
                    paramCount(params, "threads", 1)));
    options.max_steps =
        paramDouble(params, "max_steps", options.max_steps);
    fatalIf(options.triples == 0, "crossval needs triples >= 1");
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
