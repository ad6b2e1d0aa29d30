/**
 * @file
 * Request handlers of the analysis server: MAESTRO DSL in, JSON out.
 *
 * Each handler is a pure function of its inputs plus the shared
 * AnalysisPipeline, so the same DSL payload produces byte-identical
 * JSON whether it arrives over a socket, through the CLI's
 * `--format json`, or from a unit test — the server's concurrency
 * and cache state never leak into response bodies (responses carry
 * no wall-clock fields; latency lives in GET /stats).
 *
 * The untrusted-input boundary is frontend::parseString: request
 * bodies are DSL text, and every parse/validation failure surfaces
 * as maestro::Error, which the router maps to a 400 with an
 * {"error": ...} body.
 */

#ifndef MAESTRO_SERVE_HANDLERS_HH
#define MAESTRO_SERVE_HANDLERS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/core/analyzer.hh"
#include "src/mapper/mapper.hh"
#include "src/serve/http.hh"

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

/** The layers a request operates on: the selected one, else all
 *  (borrowed from inputs.network). */
std::vector<const Layer *> selectLayers(const RequestInputs &inputs);

/**
 * The one layer a dse, tune or simulate request operates on: the
 * selected one, else the network's only layer.
 *
 * @throws Error, naming the layer knob in `spelling`, when none is
 *         selected and the network has several.
 */
const Layer &singleLayer(const RequestInputs &in, const char *endpoint,
                         KnobSpelling spelling = KnobSpelling::Query);

/**
 * Parses a DSL request body and resolves analysis inputs.
 *
 * The body must define a Network; dataflows come from the body's
 * Dataflow blocks, or from the catalog via ?dataflow=NAME, else the
 * Table-3 catalog; an Accelerator block overrides `default_config`;
 * ?layer=NAME selects one layer.
 *
 * @throws Error on parse failures or unresolvable references.
 */
RequestInputs resolveRequest(const std::string &dsl,
                             const QueryParams &params,
                             const AcceleratorConfig &default_config);

/**
 * POST /analyze: per-layer analysis of every resolved dataflow.
 *
 * @throws Error for invalid layer/dataflow/hardware combinations.
 */
std::string
analyzeJson(const RequestInputs &inputs,
            const std::shared_ptr<AnalysisPipeline> &pipeline,
            const EnergyModel &energy);

/**
 * POST /dse: hardware design-space exploration (Fig. 13 space) for
 * one layer under one dataflow. Query: ?layer= (required unless the
 * network has one layer), ?area=, ?power= (finite and positive, as
 * parsePositive checks), ?exact=on.
 *
 * @throws Error on bad parameters or infeasible sweeps.
 */
std::string
dseJson(const RequestInputs &inputs, const QueryParams &params,
        const std::shared_ptr<AnalysisPipeline> &pipeline,
        const EnergyModel &energy);

/**
 * POST /tune: mapping-space search (mapper v2).
 *
 * Query: ?mode=layer|network|joint (default layer), ?layer= (layer
 * and joint modes; required unless the network has one layer),
 * ?objective=runtime|energy|edp, ?top_k=N, ?enforce_l1=on,
 * ?exact=on (exhaustive oracle), ?threads=N (capped by the server's
 * worker budget), ?clusters=/?tiles=/?act_tiles= (comma lists
 * bounding the space), and ?area=/?power= budgets in joint mode.
 *
 * `worker_threads` is the caller's evaluation-thread budget (the
 * server passes its worker pool size; the CLI passes --threads);
 * results are byte-identical for any value, so responses stay
 * reproducible across deployments. Errors name the knobs in
 * `spelling` (tuneQuery, singleLayer).
 *
 * @throws Error on bad parameters or when no mapping survives.
 */
std::string
tuneJson(const RequestInputs &inputs, const QueryParams &params,
         const std::shared_ptr<AnalysisPipeline> &pipeline,
         const EnergyModel &energy, std::size_t worker_threads = 1,
         KnobSpelling spelling = KnobSpelling::Query);

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
 * `tune` resolves its flags through this in both output formats, so
 * they accept and reject the same strings with the same messages;
 * count and list errors name the knob in `spelling`.
 *
 * @throws Error on an unknown mode or objective, when a count or list
 *         is not strictly positive integers, or when a switch has a
 *         value other than `on`.
 */
TuneQuery tuneQuery(const QueryParams &params,
                    std::size_t worker_threads,
                    KnobSpelling spelling = KnobSpelling::Query);

/**
 * The ?area= and ?power= budgets of /dse and of /tune's joint mode
 * (finite and positive; DseOptions's defaults when absent), the rest
 * of the options at their defaults. `dse` and `tune` resolve their
 * --area/--power flags through this too.
 *
 * @throws Error when a budget is not a finite positive number.
 */
dse::DseOptions dseBudgets(const QueryParams &params);

/**
 * POST /simulate: the periodic reference simulator on one layer,
 * cross-checked against the analytical model per dataflow.
 *
 * Query: ?layer= (required unless the network has one layer),
 * ?exact=on (walk every nest position — the oracle), ?max_steps=N
 * (finite and positive; work guard: nest steps on the exact path,
 * step classes on the periodic path). A missing layer is named in
 * `spelling` (singleLayer).
 *
 * @throws Error on bad parameters, unbindable dataflows, or a
 *         tripped work guard.
 */
std::string
simulateJson(const RequestInputs &inputs, const QueryParams &params,
             const std::shared_ptr<AnalysisPipeline> &pipeline,
             const EnergyModel &energy,
             KnobSpelling spelling = KnobSpelling::Query);

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
