#include "src/serve/fleet.hh"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "src/common/version.hh"
#include "src/obs/metrics.hh"

namespace maestro
{
namespace serve
{
namespace fleet
{

namespace
{

using obs::SharedMetrics;

/** Job lifecycle events, in /stats key order. */
constexpr const char *kJobEventNames[] = {
    "submitted", "resubmitted",       "completed",
    "failed",    "cancelled",         "evicted",
    "rejected_capacity", "rejected_client",
};
constexpr std::size_t kJobEventCount =
    sizeof(kJobEventNames) / sizeof(kJobEventNames[0]);

std::size_t
jobEventIndex(std::string_view event)
{
    for (std::size_t i = 0; i < kJobEventCount; ++i)
        if (event == kJobEventNames[i])
            return i;
    return SharedMetrics::kNoSlot;
}

/** The metric label of a row index (kEndpointCount: unrouted). */
const char *
endpointLabel(std::size_t i)
{
    return i == kEndpointCount ? "other" : endpoints()[i].name;
}

/** `family{key="value"}` for label values that need no escaping. */
std::string
series(std::string_view family, std::string_view key,
       std::string_view value)
{
    std::string out(family);
    out += '{';
    out += key;
    out += "=\"";
    out += value;
    out += "\"}";
    return out;
}

/** `family{client="..."}` with Prometheus label escaping. */
std::string
clientSeries(std::string_view family, const std::string &client)
{
    std::string out(family);
    out += obs::labelString({{"client", client}});
    return out;
}

std::string
workerLabel(std::size_t lane)
{
    return "worker=\"" + std::to_string(lane) + "\"";
}

/** A gauge sample, rendered as an integer when non-negative. */
void
appendGauge(std::string &out, std::string_view family,
            std::string_view labels, std::int64_t value)
{
    if (value >= 0)
        obs::appendSample(out, family, labels,
                          static_cast<std::uint64_t>(value));
    else
        obs::appendSample(out, family, labels,
                          static_cast<double>(value));
}

/** True when `name` is `family` or `family{...}`. */
bool
matchesFamily(std::string_view name, std::string_view family)
{
    if (name.size() < family.size() ||
        name.substr(0, family.size()) != family)
        return false;
    return name.size() == family.size() ||
           name[family.size()] == '{';
}

/** The age an AgeGauge cell renders: now - stored, 0 when unset. */
std::uint64_t
tickAge(std::int64_t stored, std::uint64_t now)
{
    if (stored <= 0)
        return 0;
    const std::uint64_t tick = static_cast<std::uint64_t>(stored);
    return tick < now ? now - tick : 0;
}

/** How one /metrics family renders. */
enum class FamilyKind : std::uint8_t
{
    Counter,
    Gauge,
    /** Gauge storing a steadyTickMicros(); renders now - stored
     *  (age), 0 when unset; worker="all" is the max age. */
    AgeGauge,
    Histogram,
};

/** Appends a worker component's samples for one family. */
using LocalSamples = void (*)(std::string &out, std::string_view name,
                              const ComponentStats &c);

/** One /metrics family. */
struct Family
{
    const char *name;
    const char *help;
    FamilyKind kind;
    /** Null: the family renders from the segment. Otherwise a
     *  worker-only family read from the worker's components. */
    LocalSamples local;
};

template <std::uint64_t ComponentStats::*Field>
void
componentSample(std::string &out, std::string_view name,
                const ComponentStats &c)
{
    obs::appendSample(out, name, "", c.*Field);
}

template <std::uint64_t obs::EventLogStats::*Field>
void
eventSample(std::string &out, std::string_view name,
            const ComponentStats &c)
{
    obs::appendSample(out, name, "", c.events.*Field);
}

void
evaluationsSample(std::string &out, std::string_view name,
                  const ComponentStats &c)
{
    obs::appendSample(out, name, "", c.pipeline.evaluations);
}

/** One sample per pipeline stage (plus the aggregate). */
template <auto Field>
void
stageSamples(std::string &out, std::string_view name,
             const ComponentStats &c)
{
    const PipelineStats &p = c.pipeline;
    const CacheStats aggregate = p.aggregate();
    const std::pair<const char *, const CacheStats *> stages[] = {
        {"aggregate", &aggregate}, {"binding", &p.binding},
        {"flat", &p.flat},         {"layer", &p.layer},
        {"tensor", &p.tensor},
    };
    for (const auto &[stage, cs] : stages)
        obs::appendSample(out, name,
                          obs::labelString({{"stage", stage}}),
                          static_cast<std::uint64_t>(cs->*Field));
}

/** Every /metrics family after the build info, in render order. */
constexpr Family kFamilies[] = {
    {"maestro_uptime_us", "Server uptime in microseconds",
     FamilyKind::Gauge, &componentSample<&ComponentStats::uptime_us>},
    {"maestro_requests_total", "Requests routed, by endpoint",
     FamilyKind::Counter, nullptr},
    {"maestro_responses_total", "Responses sent, by status class",
     FamilyKind::Counter, nullptr},
    {"maestro_deadline_expirations_total",
     "Requests answered 408 (deadline expired)", FamilyKind::Counter,
     nullptr},
    {"maestro_queue_rejected_total",
     "Requests rejected 503 by admission control",
     FamilyKind::Counter, nullptr},
    {"maestro_queue_capacity", "In-flight request bound",
     FamilyKind::Gauge,
     &componentSample<&ComponentStats::queue_capacity>},
    {"maestro_queue_depth", "In-flight requests right now",
     FamilyKind::Gauge, nullptr},
    {"maestro_queue_peak_depth", "Highest in-flight depth observed",
     FamilyKind::Gauge, &componentSample<&ComponentStats::peak_depth>},
    {"maestro_client_rejected_total",
     "Requests rejected 429 by a per-client budget",
     FamilyKind::Counter, nullptr},
    {"maestro_active_clients", "Clients with in-flight requests",
     FamilyKind::Gauge, nullptr},
    {"maestro_result_cache_requests_total",
     "Content-addressed result-cache lookups, by outcome",
     FamilyKind::Counter, nullptr},
    {"maestro_result_cache_evictions_total",
     "Result-cache LRU evictions", FamilyKind::Counter, nullptr},
    {"maestro_result_cache_entries", "Result-cache resident entries",
     FamilyKind::Gauge, nullptr},
    {"maestro_result_cache_bytes", "Result-cache resident body bytes",
     FamilyKind::Gauge, nullptr},
    {"maestro_result_cache_served_bytes_total",
     "Body bytes served from result-cache hits", FamilyKind::Counter,
     nullptr},
    {"maestro_jobs_total", "Async jobs, by lifecycle event",
     FamilyKind::Counter, nullptr},
    {"maestro_jobs_resident", "Resident jobs, by state",
     FamilyKind::Gauge, nullptr},
    {"maestro_jobs_capacity", "Resident job bound", FamilyKind::Gauge,
     &componentSample<&ComponentStats::job_capacity>},
    {"maestro_request_latency_us",
     "Dispatch latency of served requests in microseconds",
     FamilyKind::Histogram, nullptr},
    {"maestro_pipeline_evaluations_total",
     "analyzeLayer calls served by the shared pipeline",
     FamilyKind::Counter, &evaluationsSample},
    {"maestro_pipeline_cache_hits_total",
     "Stage-cache hits, by pipeline stage", FamilyKind::Counter,
     &stageSamples<&CacheStats::hits>},
    {"maestro_pipeline_cache_misses_total",
     "Stage-cache misses, by pipeline stage", FamilyKind::Counter,
     &stageSamples<&CacheStats::misses>},
    {"maestro_pipeline_cache_evictions_total",
     "Stage-cache LRU evictions, by pipeline stage",
     FamilyKind::Counter, &stageSamples<&CacheStats::evictions>},
    {"maestro_pipeline_cache_entries",
     "Stage-cache resident entries, by pipeline stage",
     FamilyKind::Gauge, &stageSamples<&CacheStats::entries>},
    {"maestro_jobs_oldest_queued_age_us",
     "Age of the oldest queued async job in microseconds (0 when no "
     "job is queued)",
     FamilyKind::AgeGauge, nullptr},
    {"maestro_endpoint_latency_us",
     "Request latency by endpoint in microseconds (analysis "
     "endpoints split by result-cache outcome)",
     FamilyKind::Histogram, nullptr},
    {"maestro_queue_wait_us",
     "Admission-to-execution queue wait of analysis requests in "
     "microseconds",
     FamilyKind::Histogram, nullptr},
    {"maestro_run_us",
     "Handler execution time of analysis requests in microseconds",
     FamilyKind::Histogram, nullptr},
    {"maestro_client_requests_total",
     "Requests, by client id (cardinality-capped; excess clients "
     "fold into client=\"other\")",
     FamilyKind::Counter, nullptr},
    {"maestro_client_throttled_total",
     "Per-client budget rejections (429s), by client id",
     FamilyKind::Counter, nullptr},
    {"maestro_client_cache_hits_total",
     "Result-cache hits, by client id", FamilyKind::Counter, nullptr},
    {"maestro_client_inflight",
     "In-flight requests right now, by client id", FamilyKind::Gauge,
     nullptr},
    {"maestro_events_logged_total",
     "Structured event-log lines emitted", FamilyKind::Counter,
     &eventSample<&obs::EventLogStats::lines>},
    {"maestro_events_bytes_total", "Bytes appended to the access log",
     FamilyKind::Counter, &eventSample<&obs::EventLogStats::bytes>},
    {"maestro_events_rotations_total",
     "Access-log rotations performed", FamilyKind::Counter,
     &eventSample<&obs::EventLogStats::rotations>},
    {"maestro_events_dropped_total", "Event-ring entries overwritten",
     FamilyKind::Counter, &eventSample<&obs::EventLogStats::dropped>},
};

/**
 * Appends one family (header + every matching slot) rendered from
 * the segment. With `worker_labels`, each slot emits one sample per
 * lane (`worker="i"`) plus the `worker="all"` fleet total; without,
 * each slot emits its fleet total unlabelled.
 */
void
appendSegmentFamily(std::string &out, const SharedMetrics &m,
                    const Family &f, bool worker_labels)
{
    const std::string_view family = f.name;
    const bool histograms = f.kind == FamilyKind::Histogram;
    const bool counters = f.kind == FamilyKind::Counter;
    obs::appendFamilyHeader(out, family, f.help,
                            histograms ? "histogram"
                            : counters ? "counter"
                                       : "gauge");

    const std::size_t n = histograms  ? m.histogramCount()
                          : counters ? m.counterCount()
                                     : m.gaugeCount();
    std::vector<std::pair<std::string_view, std::size_t>> slots;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string_view name = histograms ? m.histogramName(i)
                                      : counters ? m.counterName(i)
                                                 : m.gaugeName(i);
        if (matchesFamily(name, family))
            slots.emplace_back(name, i);
    }
    std::sort(slots.begin(), slots.end());

    const std::size_t lanes = m.lanes();
    const std::uint64_t now = steadyTickMicros();

    for (const auto &[name, slot] : slots) {
        const std::string_view base = name.substr(family.size());
        // One sample of this slot: a lane's value (with its worker
        // label) or, for lane == lanes, the fleet total (labelled
        // worker="all" when lanes are broken out).
        const auto emit = [&](std::size_t lane, std::string_view worker) {
            const bool total = lane == lanes;
            const std::string labels =
                worker.empty() ? std::string(base)
                               : obs::withLabels(base, worker);
            switch (f.kind) {
            case FamilyKind::Counter:
                obs::appendSample(out, family, labels,
                                  total ? m.counterTotal(slot)
                                        : m.counterLane(slot, lane));
                break;
            case FamilyKind::Gauge:
                appendGauge(out, family, labels,
                            total ? m.gaugeTotal(slot)
                                  : m.gaugeLane(slot, lane));
                break;
            case FamilyKind::AgeGauge: {
                // The fleet's age is the oldest lane's.
                std::uint64_t age = 0;
                for (std::size_t l = total ? 0 : lane;
                     l < (total ? lanes : lane + 1); ++l)
                    age = std::max(age, tickAge(m.gaugeLane(slot, l),
                                                now));
                obs::appendSample(out, family, labels, age);
                break;
            }
            case FamilyKind::Histogram:
                obs::appendHistogram(out, family, base, worker,
                                     total ? m.histogramTotal(slot)
                                           : m.histogramLane(slot,
                                                             lane));
                break;
            }
        };
        if (worker_labels) {
            for (std::size_t lane = 0; lane < lanes; ++lane)
                emit(lane, workerLabel(lane));
            emit(lanes, "worker=\"all\"");
        } else {
            emit(lanes, "");
        }
    }
}

/** Writes one stage's CacheStats. */
void
writeCacheStats(JsonWriter &w, const char *name, const CacheStats &cs)
{
    w.key(name).beginObject();
    w.key("hits").value(cs.hits);
    w.key("misses").value(cs.misses);
    w.key("evictions").value(cs.evictions);
    w.key("entries").value(static_cast<std::uint64_t>(cs.entries));
    w.key("hit_rate").value(cs.hitRate());
    w.endObject();
}

} // namespace

std::uint64_t
steadyTickMicros()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Every statically-known slot, resolved once per process. Arrays
 *  indexed by endpoint row carry one extra entry for "other". */
struct FleetLane::StaticSlots
{
    std::size_t requests[kEndpointCount + 1];
    std::size_t resp_2xx, resp_4xx, resp_5xx, deadline;
    /** /stats-only status totals (no /metrics family). */
    std::size_t resp_429, resp_503;
    std::size_t queue_rejected, client_rejected;
    std::size_t cache_hit, cache_miss, cache_evictions, cache_served;
    std::size_t jobs_events[kJobEventCount];
    std::size_t queue_depth, active_clients;
    std::size_t cache_entries, cache_bytes;
    std::size_t jobs_queued, jobs_running, jobs_resident;
    std::size_t jobs_oldest;
    std::size_t latency;
    /** [endpoint][0]=miss/plain, [endpoint][1]=hit. */
    std::size_t endpoint_hist[kEndpointCount + 1][2];
    std::size_t queue_wait[kEndpointCount + 1];
    std::size_t run[kEndpointCount + 1];
    ClientSlots other;

    static StaticSlots resolve(SharedMetrics &m);
};

FleetLane::StaticSlots
FleetLane::StaticSlots::resolve(SharedMetrics &m)
{
    StaticSlots s{};

    for (std::size_t i = 0; i <= kEndpointCount; ++i)
        s.requests[i] = m.counter(series("maestro_requests_total",
                                         "endpoint", endpointLabel(i)));

    s.resp_2xx =
        m.counter(series("maestro_responses_total", "class", "2xx"));
    s.resp_4xx =
        m.counter(series("maestro_responses_total", "class", "4xx"));
    s.resp_5xx =
        m.counter(series("maestro_responses_total", "class", "5xx"));
    s.deadline = m.counter("maestro_deadline_expirations_total");
    s.resp_429 =
        m.counter(series("maestro_status_total", "status", "429"));
    s.resp_503 =
        m.counter(series("maestro_status_total", "status", "503"));
    s.queue_rejected = m.counter("maestro_queue_rejected_total");
    s.client_rejected = m.counter("maestro_client_rejected_total");

    s.cache_hit = m.counter(series(
        "maestro_result_cache_requests_total", "outcome", "hit"));
    s.cache_miss = m.counter(series(
        "maestro_result_cache_requests_total", "outcome", "miss"));
    s.cache_evictions =
        m.counter("maestro_result_cache_evictions_total");
    s.cache_served =
        m.counter("maestro_result_cache_served_bytes_total");

    for (std::size_t i = 0; i < kJobEventCount; ++i)
        s.jobs_events[i] = m.counter(series(
            "maestro_jobs_total", "event", kJobEventNames[i]));

    s.queue_depth = m.gauge("maestro_queue_depth");
    s.active_clients = m.gauge("maestro_active_clients");
    s.cache_entries = m.gauge("maestro_result_cache_entries");
    s.cache_bytes = m.gauge("maestro_result_cache_bytes");
    s.jobs_queued =
        m.gauge(series("maestro_jobs_resident", "state", "queued"));
    s.jobs_running =
        m.gauge(series("maestro_jobs_resident", "state", "running"));
    s.jobs_resident =
        m.gauge(series("maestro_jobs_resident", "state", "total"));
    s.jobs_oldest = m.gauge("maestro_jobs_oldest_queued_age_us");

    s.latency = m.histogram("maestro_request_latency_us");

    for (std::size_t i = 0; i <= kEndpointCount; ++i) {
        const char *name = endpointLabel(i);
        if (i != kEndpointCount &&
            endpoints()[i].kind == EndpointKind::Analysis) {
            for (const int hit : {0, 1})
                s.endpoint_hist[i][hit] = m.histogram(
                    "maestro_endpoint_latency_us" +
                    obs::labelString({{"cache", hit ? "hit" : "miss"},
                                      {"endpoint", name}}));
            s.queue_wait[i] = m.histogram(
                series("maestro_queue_wait_us", "endpoint", name));
            s.run[i] = m.histogram(
                series("maestro_run_us", "endpoint", name));
        } else {
            const std::size_t plain = m.histogram(series(
                "maestro_endpoint_latency_us", "endpoint", name));
            s.endpoint_hist[i][0] = plain;
            s.endpoint_hist[i][1] = plain;
            s.queue_wait[i] = SharedMetrics::kNoSlot;
            s.run[i] = SharedMetrics::kNoSlot;
        }
    }

    s.other.requests = m.counter(
        clientSeries("maestro_client_requests_total", "other"));
    s.other.throttled = m.counter(
        clientSeries("maestro_client_throttled_total", "other"));
    s.other.cache_hits = m.counter(
        clientSeries("maestro_client_cache_hits_total", "other"));
    s.other.inflight =
        m.gauge(clientSeries("maestro_client_inflight", "other"));
    return s;
}

void
registerSlots(SharedMetrics &m)
{
    FleetLane::StaticSlots::resolve(m);
}

FleetLane::FleetLane(std::shared_ptr<SharedMetrics> segment,
                     std::size_t lane, std::size_t max_clients)
    : segment_(std::move(segment)), lane_(lane),
      max_clients_(max_clients),
      slots_(std::make_shared<const StaticSlots>(
          StaticSlots::resolve(*segment_)))
{
}

void
FleetLane::countRequest(const Endpoint *endpoint)
{
    segment_->addCounter(slots_->requests[endpointIndex(endpoint)],
                         lane_);
}

void
FleetLane::countStatus(int status)
{
    if (status == 408)
        segment_->addCounter(slots_->deadline, lane_);
    if (status == 429)
        segment_->addCounter(slots_->resp_429, lane_);
    if (status == 503)
        segment_->addCounter(slots_->resp_503, lane_);
    if (status >= 200 && status < 300)
        segment_->addCounter(slots_->resp_2xx, lane_);
    else if (status >= 400 && status < 500)
        segment_->addCounter(slots_->resp_4xx, lane_);
    else if (status >= 500)
        segment_->addCounter(slots_->resp_5xx, lane_);
}

void
FleetLane::recordResponse(const Endpoint *endpoint, const char *cache,
                          int status, std::uint64_t us)
{
    countStatus(status);
    segment_->recordHistogram(slots_->latency, lane_, us);
    const bool hit =
        cache != nullptr && std::string_view(cache) == "hit";
    segment_->recordHistogram(
        slots_->endpoint_hist[endpointIndex(endpoint)][hit ? 1 : 0],
        lane_, us);
}

void
FleetLane::countQueueRejected()
{
    segment_->addCounter(slots_->queue_rejected, lane_);
}

void
FleetLane::countClientRejected()
{
    segment_->addCounter(slots_->client_rejected, lane_);
}

void
FleetLane::countCacheHit(const std::string &client, std::uint64_t bytes)
{
    segment_->addCounter(slots_->cache_hit, lane_);
    segment_->addCounter(slots_->cache_served, lane_, bytes);
    if (!client.empty())
        segment_->addCounter(resolveClient(client).cache_hits, lane_);
}

void
FleetLane::countCacheMiss()
{
    segment_->addCounter(slots_->cache_miss, lane_);
}

void
FleetLane::addCacheEvictions(std::uint64_t n)
{
    if (n > 0)
        segment_->addCounter(slots_->cache_evictions, lane_, n);
}

void
FleetLane::setCacheGauges(std::size_t entries, std::size_t bytes)
{
    segment_->setGauge(slots_->cache_entries, lane_,
                       static_cast<std::int64_t>(entries));
    segment_->setGauge(slots_->cache_bytes, lane_,
                       static_cast<std::int64_t>(bytes));
}

void
FleetLane::addQueueDepth(std::int64_t delta)
{
    segment_->addGauge(slots_->queue_depth, lane_, delta);
}

void
FleetLane::setActiveClients(std::int64_t n)
{
    segment_->setGauge(slots_->active_clients, lane_, n);
}

void
FleetLane::recordJobEvent(const obs::JobEvent &event)
{
    const std::size_t i = jobEventIndex(event.event);
    if (i != SharedMetrics::kNoSlot)
        segment_->addCounter(slots_->jobs_events[i], lane_);
    const Endpoint *endpoint = findAnalysis(event.endpoint);
    if (endpoint == nullptr)
        return;
    if (event.has_queue_wait)
        recordQueueWait(*endpoint, event.queue_wait_us);
    if (event.has_run)
        recordRun(*endpoint, event.run_us);
}

void
FleetLane::setJobGauges(std::size_t queued, std::size_t running,
                        std::size_t resident,
                        std::uint64_t oldest_tick_us)
{
    segment_->setGauge(slots_->jobs_queued, lane_,
                       static_cast<std::int64_t>(queued));
    segment_->setGauge(slots_->jobs_running, lane_,
                       static_cast<std::int64_t>(running));
    segment_->setGauge(slots_->jobs_resident, lane_,
                       static_cast<std::int64_t>(resident));
    segment_->setGauge(slots_->jobs_oldest, lane_,
                       static_cast<std::int64_t>(oldest_tick_us));
}

void
FleetLane::recordQueueWait(const Endpoint &endpoint, std::uint64_t us)
{
    segment_->recordHistogram(
        slots_->queue_wait[endpointIndex(&endpoint)], lane_, us);
}

void
FleetLane::recordRun(const Endpoint &endpoint, std::uint64_t us)
{
    segment_->recordHistogram(slots_->run[endpointIndex(&endpoint)],
                              lane_, us);
}

FleetLane::ClientSlots
FleetLane::resolveClient(const std::string &client)
{
    std::lock_guard<std::mutex> lock(clients_mutex_);
    const auto it = clients_.find(client);
    if (it != clients_.end())
        return it->second;

    ClientSlots slots = slots_->other;
    const std::string requests_name =
        clientSeries("maestro_client_requests_total", client);

    // A client another worker already registered is always reused —
    // the cap bounds NEW series, never splits one client across
    // per-worker identities.
    bool admit = segment_->findCounter(requests_name) !=
                 SharedMetrics::kNoSlot;
    if (!admit) {
        // +1: the pre-registered client="other" fold series.
        admit = segment_->countersWithPrefix(
                    "maestro_client_requests_total{") <
                max_clients_ + 1;
    }
    if (admit) {
        const std::size_t requests =
            segment_->counter(requests_name);
        const std::size_t throttled = segment_->counter(
            clientSeries("maestro_client_throttled_total", client));
        const std::size_t cache_hits = segment_->counter(
            clientSeries("maestro_client_cache_hits_total", client));
        const std::size_t inflight = segment_->gauge(
            clientSeries("maestro_client_inflight", client));
        if (requests != SharedMetrics::kNoSlot &&
            throttled != SharedMetrics::kNoSlot &&
            cache_hits != SharedMetrics::kNoSlot &&
            inflight != SharedMetrics::kNoSlot)
            slots = ClientSlots{requests, throttled, cache_hits,
                                inflight};
    }
    clients_.emplace(client, slots);
    return slots;
}

void
FleetLane::clientRequest(const std::string &client)
{
    segment_->addCounter(resolveClient(client).requests, lane_);
}

void
FleetLane::clientThrottled(const std::string &client)
{
    segment_->addCounter(resolveClient(client).throttled, lane_);
}

void
FleetLane::clientInflight(const std::string &client,
                          std::int64_t delta)
{
    segment_->addGauge(resolveClient(client).inflight, lane_, delta);
}

std::string
FleetLane::statsJson(const ComponentStats &local) const
{
    const StaticSlots &s = *slots_;
    const SharedMetrics &m = *segment_;
    const auto count = [&](std::size_t slot) {
        return m.counterLane(slot, lane_);
    };
    const auto gauge = [&](std::size_t slot) {
        return static_cast<std::uint64_t>(m.gaugeLane(slot, lane_));
    };

    JsonWriter w;
    w.beginObject();
    w.key("uptime_us").value(local.uptime_us);

    // Unrouted requests count in the total, under no endpoint key.
    std::uint64_t total = 0;
    for (const std::size_t slot : s.requests)
        total += count(slot);
    w.key("requests").beginObject();
    w.key("total").value(total);
    for (std::size_t i = 0; i < kEndpointCount; ++i)
        w.key(endpoints()[i].name).value(count(s.requests[i]));
    w.endObject();

    w.key("responses").beginObject();
    w.key("2xx").value(count(s.resp_2xx));
    w.key("4xx").value(count(s.resp_4xx));
    w.key("5xx").value(count(s.resp_5xx));
    w.key("deadline_408").value(count(s.deadline));
    w.key("throttled_429").value(count(s.resp_429));
    w.key("rejected_503").value(count(s.resp_503));
    w.endObject();

    w.key("queue").beginObject();
    w.key("capacity").value(local.queue_capacity);
    w.key("depth").value(gauge(s.queue_depth));
    w.key("peak_depth").value(local.peak_depth);
    w.key("rejected").value(count(s.queue_rejected));
    w.key("client_share").value(local.client_share);
    w.key("active_clients").value(gauge(s.active_clients));
    w.key("rejected_client").value(count(s.client_rejected));
    w.endObject();

    w.key("result_cache").beginObject();
    w.key("hits").value(count(s.cache_hit));
    w.key("misses").value(count(s.cache_miss));
    w.key("evictions").value(count(s.cache_evictions));
    w.key("inserted").value(local.cache_inserted);
    w.key("entries").value(gauge(s.cache_entries));
    w.key("bytes").value(gauge(s.cache_bytes));
    w.key("served_bytes").value(count(s.cache_served));
    w.endObject();

    w.key("jobs").beginObject();
    for (std::size_t i = 0; i < kJobEventCount; ++i)
        w.key(kJobEventNames[i]).value(count(s.jobs_events[i]));
    w.key("queued").value(gauge(s.jobs_queued));
    w.key("running").value(gauge(s.jobs_running));
    w.key("resident").value(gauge(s.jobs_resident));
    w.key("capacity").value(local.job_capacity);
    w.endObject();

    const LatencyHistogram::Snapshot latency =
        m.histogramLane(s.latency, lane_);
    w.key("latency_us").beginObject();
    w.key("count").value(latency.count);
    w.key("total").value(latency.total_us);
    w.key("max").value(latency.max_us);
    w.key("buckets").beginArray();
    for (const std::uint64_t bucket : latency.buckets)
        w.value(bucket);
    w.endArray();
    // Explicit bucket upper bounds: bucket i counts samples below
    // le_us[i] microseconds; the catch-all bucket has no finite
    // bound and renders null.
    w.key("le_us").beginArray();
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
        if (LatencyHistogram::isOverflowBucket(i))
            w.null();
        else
            w.value(LatencyHistogram::upperBoundMicros(i));
    }
    w.endArray();
    w.endObject();

    const PipelineStats &pipeline = local.pipeline;
    w.key("pipeline").beginObject();
    w.key("evaluations").value(pipeline.evaluations);
    w.key("stages").beginObject();
    writeCacheStats(w, "tensor", pipeline.tensor);
    writeCacheStats(w, "binding", pipeline.binding);
    writeCacheStats(w, "flat", pipeline.flat);
    writeCacheStats(w, "layer", pipeline.layer);
    w.endObject();
    writeCacheStats(w, "aggregate", pipeline.aggregate());
    w.endObject();

    writeEventStats(w, local.events);

    // The fleet breakdown only exists when there IS a fleet: a
    // single-lane segment would just repeat the numbers above.
    if (m.lanes() > 1)
        writeFleetStats(w, m, lane_);

    w.endObject();
    return w.str();
}

std::string
metricsText(const SharedMetrics &m, const ComponentStats *local)
{
    std::string out;
    out.reserve(16 * 1024);

    obs::appendFamilyHeader(
        out, "maestro_build_info",
        "Build identity (constant 1; the version rides on the label)",
        "gauge");
    obs::appendSample(out, "maestro_build_info",
                      obs::labelString({{"version", kVersion}}),
                      std::uint64_t{1});
    if (local == nullptr) {
        obs::appendFamilyHeader(out, "maestro_workers",
                                "Worker processes in the fleet",
                                "gauge");
        obs::appendSample(out, "maestro_workers", "",
                          static_cast<std::uint64_t>(m.lanes()));
    }

    const bool worker_labels = m.lanes() > 1;
    for (const Family &f : kFamilies) {
        if (f.local == nullptr) {
            appendSegmentFamily(out, m, f, worker_labels);
        } else if (local != nullptr) {
            obs::appendFamilyHeader(out, f.name, f.help,
                                    f.kind == FamilyKind::Counter
                                        ? "counter"
                                        : "gauge");
            f.local(out, f.name, *local);
        }
    }
    return out;
}

void
writeEventStats(JsonWriter &w, const obs::EventLogStats &s)
{
    w.key("events").beginObject();
    w.key("lines").value(s.lines);
    w.key("bytes").value(s.bytes);
    w.key("rotations").value(s.rotations);
    w.key("dropped").value(s.dropped);
    w.endObject();
}

void
writeFleetStats(JsonWriter &w, const SharedMetrics &m,
                std::size_t lane)
{
    const std::size_t lanes = m.lanes();

    // Per-lane routed-request totals: every maestro_requests_total
    // endpoint slot summed.
    std::vector<std::uint64_t> requests(lanes, 0);
    const std::size_t n = m.counterCount();
    for (std::size_t i = 0; i < n; ++i) {
        if (!matchesFamily(m.counterName(i),
                           "maestro_requests_total"))
            continue;
        for (std::size_t l = 0; l < lanes; ++l)
            requests[l] += m.counterLane(i, l);
    }

    const std::size_t ok_slot = m.findCounter(
        "maestro_responses_total{class=\"2xx\"}");

    w.key("fleet").beginObject();
    w.key("workers").value(static_cast<std::uint64_t>(lanes));
    w.key("lane").value(static_cast<std::uint64_t>(lane));

    std::uint64_t all = 0;
    for (const std::uint64_t v : requests)
        all += v;
    w.key("requests").beginObject();
    w.key("all").value(all);
    w.key("per_worker").beginArray();
    for (const std::uint64_t v : requests)
        w.value(v);
    w.endArray();
    w.endObject();

    w.key("responses_2xx").beginObject();
    if (ok_slot != SharedMetrics::kNoSlot) {
        w.key("all").value(m.counterTotal(ok_slot));
        w.key("per_worker").beginArray();
        for (std::size_t l = 0; l < lanes; ++l)
            w.value(m.counterLane(ok_slot, l));
        w.endArray();
    } else {
        w.key("all").value(std::uint64_t{0});
        w.key("per_worker").beginArray();
        w.endArray();
    }
    w.endObject();

    w.endObject();
}

} // namespace fleet
} // namespace serve
} // namespace maestro
