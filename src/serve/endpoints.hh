/**
 * @file
 * The analysis server's endpoint table: the one place its routes are
 * declared.
 *
 * Each row fixes an endpoint's name, path, accepted method, kind,
 * `--trace` span site, and handler. The router, `POST /jobs/<name>`,
 * result-cache keys, metric labels, span names, event-log fields,
 * and the `/stats` request keys all read the table, so adding an
 * endpoint is one row plus its handler. The table is constant data
 * (defined in server.cc, where the handlers live).
 */

#ifndef MAESTRO_SERVE_ENDPOINTS_HH
#define MAESTRO_SERVE_ENDPOINTS_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/obs.hh"
#include "src/serve/http.hh"

namespace maestro
{
namespace serve
{

class AnalysisServer;

/** A response plus the telemetry annotations that never hit the wire. */
struct Reply
{
    int status = 200;
    std::string body;
    std::vector<std::string> extra_headers;
    /** Last brace-init field so short inits stay valid. */
    std::string content_type = "application/json";
    std::string client{};         ///< resolved client key
    const char *cache = nullptr;  ///< "hit"/"miss" for analysis
    const char *reject = nullptr; ///< admission rejection kind
};

/** One request as a handler sees it (path and query decoded once). */
struct Call
{
    std::string_view method;
    std::string_view path;
    const QueryParams &params;
    const std::string &body;
    const std::string &client; ///< quota and fair-dequeue key
    const std::string &trace_id;
};

/** How the server runs an endpoint. */
enum class EndpointKind : std::uint8_t
{
    /** POST evaluation behind admission and the result cache; also
     *  submittable as an async job (`POST /jobs/<name>`). */
    Analysis,
    /** Answered on the connection thread. */
    Inline,
};

/** One row of the endpoint table. */
struct Endpoint
{
    const char *name; ///< metric label, event-log field, /stats key
    const char *path;
    /** The accepted method (405 otherwise). Null: the handler checks
     *  methods itself and also owns `path/<suffix>` (/jobs/<id>). */
    const char *method;
    EndpointKind kind;
    obs::Site site; ///< `http.<name>` span (no histogram)
    Reply (AnalysisServer::*handler)(const Call &);
};

/** Rows in the table. */
inline constexpr std::size_t kEndpointCount = 10;

/** The table, in /stats key order. */
std::span<const Endpoint, kEndpointCount> endpoints();

/** The row serving `path`, or null (404; labelled "other"). */
const Endpoint *findEndpoint(std::string_view path);

/** The Analysis row named `name` (a /jobs/<name> suffix), or null. */
const Endpoint *findAnalysis(std::string_view name);

/** `e`'s row index; kEndpointCount for null (the "other" label). */
std::size_t endpointIndex(const Endpoint *e);

} // namespace serve
} // namespace maestro

#endif // MAESTRO_SERVE_ENDPOINTS_HH
