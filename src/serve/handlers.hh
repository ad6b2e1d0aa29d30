/**
 * @file
 * Request handlers of the analysis server: MAESTRO DSL in, JSON out.
 *
 * Each analysis endpoint is one evaluation (analyzeRun, dseRun,
 * tuneRun, simulateRun), a pure function of the resolved inputs, the
 * query and the shared AnalysisPipeline, plus a JSON rendering of its
 * result. The server, the CLI's `--format json` and the CLI's tables
 * all render the same run, so a DSL payload produces byte-identical
 * JSON whether it arrives over a socket, through the CLI, or from a
 * unit test — the server's concurrency and cache state never leak
 * into response bodies (responses carry no wall-clock fields; latency
 * lives in GET /stats).
 *
 * The untrusted-input boundary is frontend::parseString: request
 * bodies are DSL text, and every parse/validation failure surfaces
 * as maestro::Error, which the router maps to a 400 with an
 * {"error": ...} body. The CLI parses its flags with the same knob
 * parsing, naming them as flags (KnobSpelling::Flag).
 */

#ifndef MAESTRO_SERVE_HANDLERS_HH
#define MAESTRO_SERVE_HANDLERS_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/core/analyzer.hh"
#include "src/frontend/parser.hh"
#include "src/mapper/mapper.hh"
#include "src/serve/http.hh"
#include "src/sim/reference_sim.hh"

namespace maestro
{
namespace serve
{

/**
 * State shared by every request: the warm pipeline and the default
 * hardware/energy models used when a request body has no
 * Accelerator block.
 */
struct ServeContext
{
    std::shared_ptr<AnalysisPipeline> pipeline =
        std::make_shared<AnalysisPipeline>();
    AcceleratorConfig default_config = AcceleratorConfig::paperStudy();
    EnergyModel energy;
};

/**
 * Analysis inputs resolved from one request (DSL body + query
 * parameters). The CLI resolves its flags into the same struct.
 */
struct RequestInputs
{
    Network network{"none"};
    std::vector<Dataflow> dataflows;
    AcceleratorConfig config = AcceleratorConfig::paperStudy();

    /** Restrict analysis to one layer (else all layers). */
    std::optional<std::string> layer_name;
};

/**
 * How the shared parsing names a knob in its errors: as the server's
 * query parameter (`?layer=NAME`, `query parameter 'top_k'`) or as the
 * CLI's flag (`--layer NAME`, `--top-k`).
 */
enum class KnobSpelling : std::uint8_t
{
    Query,
    Flag,
};

/**
 * Integer knob `key` in [lo, hi] (parseNumber), else `fallback` when
 * absent. @throws Error naming the knob in `spelling` otherwise.
 */
std::size_t
paramCount(const QueryParams &params, const std::string &key,
           std::size_t fallback, KnobSpelling spelling = KnobSpelling::Query,
           std::size_t lo = 1,
           std::size_t hi = std::numeric_limits<std::size_t>::max());

/**
 * Real knob `key`, finite and positive (parsePositive), else
 * `fallback` when absent. @throws Error naming the knob otherwise.
 */
double paramPositive(const QueryParams &params, const std::string &key,
                     double fallback,
                     KnobSpelling spelling = KnobSpelling::Query);

/** The one layer of a dse, tune or simulate request: the selected
 *  one, else the network's only layer. @throws Error, naming the layer
 *  knob in `spelling`, when none is selected and there are several. */
const Layer &singleLayer(const RequestInputs &in, const char *endpoint,
                         KnobSpelling spelling = KnobSpelling::Query);

/**
 * Resolves a parsed DSL file and the request's knobs: the first
 * Network; ?dataflow=NAME (the file's block of that name, else the
 * catalog's), else the file's Dataflow blocks, else the Table-3
 * catalog; the Accelerator block, else `default_config`; ?layer=NAME
 * selects one layer.
 *
 * @throws Error when the file has no Network or a dataflow is unknown.
 */
RequestInputs resolveInputs(frontend::ParsedFile file,
                            const QueryParams &params,
                            const AcceleratorConfig &default_config,
                            KnobSpelling spelling = KnobSpelling::Query);

/** Parses a DSL request body and resolves it (resolveInputs).
 *  @throws Error on an empty body or a parse failure too. */
RequestInputs resolveRequest(const std::string &dsl,
                             const QueryParams &params,
                             const AcceleratorConfig &default_config);

// Each endpoint's evaluation (xRun) returns what its body renders
// (xJson); a run borrows its layers from the inputs it ran on. A run
// throws Error on a bad knob (named in `spelling`) or on inputs the
// model rejects, and its result is the same at any thread count.

/** POST /analyze: per resolved dataflow (request order), the selected
 *  layers' analyses. A failure reports the first failing (dataflow,
 *  layer) in request order. */
struct AnalyzeRun
{
    std::vector<std::vector<LayerAnalysis>> dataflows;
};

AnalyzeRun analyzeRun(const RequestInputs &inputs,
                      const std::shared_ptr<AnalysisPipeline> &pipeline,
                      const EnergyModel &energy,
                      std::size_t num_threads = 1);

std::string analyzeJson(const RequestInputs &inputs, const AnalyzeRun &run);

/** The /analyze body of a one-thread run. */
std::string
analyzeJson(const RequestInputs &inputs,
            const std::shared_ptr<AnalysisPipeline> &pipeline,
            const EnergyModel &energy);

/**
 * POST /dse: the Fig. 13 hardware sweep of one layer under one
 * dataflow. Query: ?layer= (required unless the network has one
 * layer), ?area=, ?power= (finite and positive), ?exact=on. The fast
 * sweep shards over `num_threads`.
 */
struct DseRun
{
    const Layer *layer = nullptr;
    dse::DseOptions options;
    dse::DseResult result;
};

DseRun dseRun(const RequestInputs &inputs, const QueryParams &params,
              const std::shared_ptr<AnalysisPipeline> &pipeline,
              const EnergyModel &energy, std::size_t num_threads = 1,
              KnobSpelling spelling = KnobSpelling::Query);

std::string dseJson(const RequestInputs &inputs, const DseRun &run);

/** The /dse body of a one-thread run. */
std::string
dseJson(const RequestInputs &inputs, const QueryParams &params,
        const std::shared_ptr<AnalysisPipeline> &pipeline,
        const EnergyModel &energy);

/** A /tune request's mode, objective and mapper knobs. */
struct TuneQuery
{
    /** layer, network or joint. */
    std::string mode = "layer";

    /** runtime, energy or edp, as the request spelled it. */
    std::string objective_name = "runtime";

    mapper::Objective objective = mapper::Objective::Runtime;

    mapper::MapperOptions options;
};

/**
 * Parses a /tune request's ?mode=, ?objective= and mapper knobs:
 * ?top_k=, ?enforce_l1=on, ?exact=on, ?threads= (capped by
 * `worker_threads`) and the ?clusters=/?tiles=/?act_tiles= lists.
 * @throws Error on an unknown mode or objective, a count or list that
 *         is not positive integers, or a switch other than `on`.
 */
TuneQuery tuneQuery(const QueryParams &params,
                    std::size_t worker_threads,
                    KnobSpelling spelling = KnobSpelling::Query);

/**
 * POST /tune: mapping-space search (mapper v2) under tuneQuery's
 * knobs, of ?layer= (layer and joint modes; required unless the
 * network has one layer) or the whole network, with ?area=/?power=
 * budgets (checked in every mode, used in joint mode).
 * `worker_threads` is the caller's thread budget: the server's worker
 * pool size, the CLI's --threads.
 */
struct TuneRun
{
    TuneQuery query;

    /** The tuned layer (layer and joint modes). */
    const Layer *layer = nullptr;

    std::variant<mapper::MapperResult, mapper::NetworkMapperResult,
                 mapper::JointMapperResult>
        result;
};

TuneRun tuneRun(const RequestInputs &inputs, const QueryParams &params,
                const std::shared_ptr<AnalysisPipeline> &pipeline,
                const EnergyModel &energy, std::size_t worker_threads = 1,
                KnobSpelling spelling = KnobSpelling::Query);

std::string tuneJson(const RequestInputs &inputs, const TuneRun &run);

/**
 * POST /simulate: the reference simulator on one layer, per dataflow,
 * with the analytical runtime beside it. Query: ?layer= (required
 * unless the network has one layer), ?exact=on (walk every nest
 * position — the oracle), ?max_steps=N (finite and positive; work
 * guard: nest steps on the exact path, step classes on the periodic
 * path).
 */
struct SimulateRun
{
    /** One dataflow's simulation and analytical runtime. */
    struct Entry
    {
        SimResult sim;
        double analytical_runtime = 0.0;
    };

    const Layer *layer = nullptr;
    SimOptions options;
    std::vector<Entry> dataflows;
};

SimulateRun simulateRun(const RequestInputs &inputs,
                        const QueryParams &params,
                        const std::shared_ptr<AnalysisPipeline> &pipeline,
                        const EnergyModel &energy,
                        KnobSpelling spelling = KnobSpelling::Query);

std::string simulateJson(const RequestInputs &inputs,
                         const SimulateRun &run);

/** The /simulate body of the request's run. */
std::string
simulateJson(const RequestInputs &inputs, const QueryParams &params,
             const std::shared_ptr<AnalysisPipeline> &pipeline,
             const EnergyModel &energy);

/** The most triples one /crossval request may ask for: the sweep
 *  allocates its triples up front. */
constexpr std::size_t kMaxCrossvalTriples = 100000;

/**
 * POST /crossval: the randomized analytical-vs-simulator
 * cross-validation sweep (src/sim/crossval). The body is ignored;
 * everything rides on the query: ?triples=N (default 100, at most
 * kMaxCrossvalTriples), ?seed=N (default 7, 0 allowed), ?threads=N
 * (capped by the server's worker budget), ?max_steps=N (finite and
 * positive). The report is byte-identical at any thread count and
 * carries no wall-clock fields.
 *
 * @throws Error on bad parameters.
 */
std::string crossvalRunJson(const QueryParams &params,
                            std::size_t worker_threads);

/**
 * GET /healthz body ({"status","version"}). During a graceful drain
 * the status flips to "draining" (and the server answers 503) so
 * load balancers stop routing to a stopping worker.
 */
std::string healthzJson(bool draining = false);

/** {"error": message} body for failure responses. */
std::string errorJson(std::string_view message);

} // namespace serve
} // namespace maestro

#endif // MAESTRO_SERVE_HANDLERS_HH
