/**
 * @file
 * The serve layer's counter store: the shared-memory metrics segment
 * in the server's vocabulary, and the renderers that read it.
 *
 * obs::SharedMetrics is a generic slot arena; this unit gives it the
 * server's vocabulary. Slot names are pre-rendered Prometheus series
 * (`family{label="x"}`), so the segment doubles as its own schema:
 * the renderers group slots by family prefix and emit totals, with
 * per-worker breakdown labels (`worker="0..N-1"`, `worker="all"`)
 * when the segment has more than one lane, without side tables.
 *
 * Three roles:
 *  - registerSlots(): the static slot matrix, registered by the
 *    supervisor BEFORE fork() so every worker resolves identical
 *    indices.
 *  - FleetLane: a worker's write handle and the server's only
 *    request/response/queue/cache/job counter store — one relaxed
 *    atomic per event into its own lane. A single-process server
 *    owns a private 1-lane segment, so it counts the same way.
 *  - metricsText()/FleetLane::statsJson()/writeFleetStats(): the read
 *    side backing GET /metrics, GET /stats, and the supervisor
 *    status port. One ordered family table drives /metrics for any
 *    lane count, on a worker and on the status port alike.
 *
 * Per-client label cardinality is capped (--metrics-max-clients):
 * the first `cap` distinct client ids get their own series, the rest
 * fold into `client="other"`. The cap is enforced against the live
 * series count in the segment, so it holds fleet-wide (a racing
 * registration in two workers can overshoot by at most the worker
 * count — bounded, and far below an unbounded-label blowup).
 */

#ifndef MAESTRO_SERVE_FLEET_HH
#define MAESTRO_SERVE_FLEET_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/common/json.hh"
#include "src/core/pipeline.hh"
#include "src/obs/event_log.hh"
#include "src/obs/shared_metrics.hh"
#include "src/serve/endpoints.hh"

namespace maestro
{
namespace serve
{
namespace fleet
{

/**
 * Steady-clock µs tick. CLOCK_MONOTONIC is system-wide on Linux, so
 * ticks recorded by one worker compare meaningfully in another (job
 * queue-age rendering spans processes).
 */
std::uint64_t steadyTickMicros();

/**
 * Registers every static fleet slot (idempotent). The supervisor
 * calls this pre-fork; FleetLane re-resolves the same names.
 */
void registerSlots(obs::SharedMetrics &m);

/**
 * What a worker's components report beyond its lane: capacities and
 * other configuration, high-water marks, and the component-owned
 * stage-cache and event-log counters.
 */
struct ComponentStats
{
    std::uint64_t uptime_us = 0;
    std::uint64_t queue_capacity = 0;
    std::uint64_t peak_depth = 0;
    std::uint64_t client_share = 0;
    std::uint64_t cache_inserted = 0;
    std::uint64_t job_capacity = 0;
    PipelineStats pipeline;
    obs::EventLogStats events;
};

/**
 * GET /metrics: Prometheus text exposition (v0.0.4) of the segment,
 * one ordered family table for any lane count. With `local` (a
 * worker), the worker's component families render in their table
 * positions; without (the supervisor status port), they are skipped
 * and a `maestro_workers` gauge follows the build info. Worker
 * labels appear only when the segment has more than one lane.
 */
std::string metricsText(const obs::SharedMetrics &m,
                        const ComponentStats *local);

/** Writes the GET /stats "events" object (event-log counters). */
void writeEventStats(JsonWriter &w, const obs::EventLogStats &s);

/**
 * Writes the GET /stats "fleet" object: worker count, this worker's
 * lane, and request/2xx totals broken down per worker.
 */
void writeFleetStats(JsonWriter &w, const obs::SharedMetrics &m,
                     std::size_t lane);

/**
 * One worker's write handle to the segment: pre-resolved slot
 * indices plus the per-client registration cache. Thread-safe; every
 * count is a relaxed atomic on the worker's own lane.
 */
class FleetLane
{
  public:
    /**
     * @param segment The shared arena (slots resolved here).
     * @param lane This worker's lane index.
     * @param max_clients Distinct client ids before folding into
     *        `client="other"` (0 = fold everyone).
     */
    FleetLane(std::shared_ptr<obs::SharedMetrics> segment,
              std::size_t lane, std::size_t max_clients);

    obs::SharedMetrics &segment() const { return *segment_; }
    std::size_t lane() const { return lane_; }

    /** One request for `endpoint` (null: unrouted or unparsed). */
    void countRequest(const Endpoint *endpoint);

    /** One response's status class (plus 408/429/503 totals). */
    void countStatus(int status);

    /** countStatus plus the request and per-endpoint latency
     *  histograms (`cache` is "hit"/"miss" for analysis, else null). */
    void recordResponse(const Endpoint *endpoint, const char *cache,
                        int status, std::uint64_t us);

    void countQueueRejected();
    void countClientRejected();

    /** A result-cache hit serving `bytes` (per-client series too,
     *  unless `client` is empty). */
    void countCacheHit(const std::string &client, std::uint64_t bytes);
    void countCacheMiss();
    void addCacheEvictions(std::uint64_t n);
    void setCacheGauges(std::size_t entries, std::size_t bytes);
    void addQueueDepth(std::int64_t delta);
    void setActiveClients(std::int64_t n);

    /** Counts a job transition; records its queue wait / run time. */
    void recordJobEvent(const obs::JobEvent &event);
    void setJobGauges(std::size_t queued, std::size_t running,
                      std::size_t resident,
                      std::uint64_t oldest_tick_us);

    /** Sync-path admission-to-start wait and handler time. */
    void recordQueueWait(const Endpoint &endpoint, std::uint64_t us);
    void recordRun(const Endpoint &endpoint, std::uint64_t us);

    void clientRequest(const std::string &client);
    void clientThrottled(const std::string &client);
    void clientInflight(const std::string &client,
                        std::int64_t delta);

    /**
     * GET /stats: every count this lane holds, read from the lane,
     * plus `local` for what it does not. With a multi-lane segment,
     * a "fleet" object breaks request totals down per worker.
     */
    std::string statsJson(const ComponentStats &local) const;

  private:
    /** Slot indices of one client's four series. */
    struct ClientSlots
    {
        std::size_t requests;
        std::size_t throttled;
        std::size_t cache_hits;
        std::size_t inflight;
    };

    /** Finds/registers `client`'s slots, folding past the cap. */
    ClientSlots resolveClient(const std::string &client);

    std::shared_ptr<obs::SharedMetrics> segment_;
    std::size_t lane_;
    std::size_t max_clients_;

    /** Static slots live in the impl's table; see fleet.cc. */
    struct StaticSlots;
    friend void registerSlots(obs::SharedMetrics &);
    std::shared_ptr<const StaticSlots> slots_;

    mutable std::mutex clients_mutex_;
    std::map<std::string, ClientSlots> clients_;
};

} // namespace fleet
} // namespace serve
} // namespace maestro

#endif // MAESTRO_SERVE_FLEET_HH
