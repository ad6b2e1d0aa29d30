/**
 * @file
 * The four workloads. Each is a closed loop: a client sends its next
 * operation only after the previous one completed.
 *
 *  - cli_cold: one client posix_spawns the CLI, one run at a time.
 *  - serve_cold: keep-alive clients against `maestro serve`; no body
 *    ever repeats, so the result cache never hits.
 *  - serve_hot: the same server, one client; a working set that fits
 *    the result cache, plus 5% GET /metrics and GET /stats scrapes.
 *  - search: in-process rounds of the Fig. 13 DSE sweep, the mapper,
 *    and crossval, in a seeded order.
 *
 * Where an operation runs in one place at a time (a CLI child, a search
 * kernel call) its latency is read on that place's CPU clock, and a
 * server's cost per request on the server's CPU clock: on a guest with
 * paravirtual steal accounting these leave out the time the host spent
 * running other tenants. A shared host also changes its cores' clock
 * rate with its neighbours' load, so every time is scaled to a nominal
 * host speed by a SpeedGauge sampled through the run. Every figure
 * then pools the fastest windows of the timed region (windowStats), so
 * short bursts of contention for the cores' caches stay out of it.
 *
 * Every output is checked after the timed region: serve bodies against
 * the in-process handler on the same body and query, CLI JSON against
 * the same handlers, and the search kernels against their exact
 * oracles.
 *
 * A traced run (--trace 1) splits the measured time into an untraced
 * half and a traced half (their throughput ratio is the tracing
 * overhead), records spans around every call the driver makes into a
 * layer, and folds them into a per-operation ledger whose layer rows
 * plus the unattributed residual sum to the measured whole.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hh"
#include "src/common/error.hh"
#include "src/common/hash.hh"
#include "src/core/analyzer.hh"
#include "src/dataflows/catalog.hh"
#include "src/dse/explorer.hh"
#include "src/frontend/parser.hh"
#include "src/mapper/mapper.hh"
#include "src/model/zoo.hh"
#include "src/serve/handlers.hh"
#include "src/sim/crossval.hh"
#include "src/sim/reference_sim.hh"

namespace perfbench
{

namespace
{

using namespace maestro;

/** Set-up repetitions whose median is setup_s. */
constexpr int kSetupReps = 31;
constexpr int kServerSetupReps = 21;
constexpr int kSearchSetupReps = 9;

/** The timed region splits into kWindows windows of whole operation
 *  cycles; the figures pool the kKeptWindows fastest (see windowStats). */
constexpr std::size_t kWindows = 20;
constexpr std::size_t kKeptWindows = 5;

/** Untimed warm-up of the serve loops: stage caches fill, the result
 *  cache reaches its steady state. */
constexpr double kServeWarmS = 1.0;

/** Cold in-process replays of each CLI command in a traced run. */
constexpr int kCliReplays = 5;

/** search: Fig. 13 sweeps per round (one sweep takes well under a
 *  millisecond, the mapper call hundreds) and crossval triples. */
constexpr int kDseSweeps = 20;
constexpr std::uint64_t kCrossvalTriples = 100;
constexpr std::size_t kSearchCycle = kDseSweeps + 2;

/** serve_hot repeats its request mix every 80 requests: the 16-request
 *  working set against a scrape every 20th, alternating two kinds. */
constexpr std::size_t kHotCycle = 80;

const char *const kStages[4] = {"tensor", "binding", "flat", "layer"};

/** Digest of a response body: FNV-1a of the bytes plus the length. */
std::uint64_t
digestOf(const std::string &body)
{
    return hashCombine(hashBytes(body), body.size());
}

Clock::duration
asDuration(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/** Warm-up, then the timed region: untraced, or untraced then traced
 *  halves when the run is traced. */
struct Phases
{
    Clock::time_point timed;
    Clock::time_point traced;
    Clock::time_point end;

    static Phases
    after(double warm_s, const Options &o)
    {
        Phases p;
        p.timed = Clock::now() + asDuration(warm_s);
        p.traced = p.timed + asDuration(o.trace ? o.seconds / 2 : o.seconds);
        p.end = p.timed + asDuration(o.seconds);
        return p;
    }

    /** -1 warm-up, 0 untraced, 1 traced, 2 over. */
    int
    at(Clock::time_point t) const
    {
        if (t < timed)
            return -1;
        if (t < traced)
            return 0;
        return t < end ? 1 : 2;
    }

    /** Where `phase`'s sample times count from. */
    Clock::time_point
    start(int phase) const
    {
        return phase == 0 ? timed : traced;
    }
};

std::vector<double>
msOf(const std::vector<Sample> &samples)
{
    std::vector<double> ms;
    ms.reserve(samples.size());
    for (const Sample &s : samples)
        ms.push_back(s.ms);
    return ms;
}

/** The window figures of one untraced phase, printed as counts under
 *  `clock` ("wall" or "cpu"). */
WindowStats
reportWindows(RunResult &r, const std::vector<Sample> &samples,
              std::size_t cycle, const std::string &clock)
{
    const WindowStats w = windowStats(samples, cycle, kWindows, kKeptWindows);
    r.counts[clock + "_samples"] = static_cast<double>(samples.size());
    r.counts[clock + "_kept_window_samples"] = static_cast<double>(w.samples);
    r.counts[clock + "_p50_ms"] = w.p50_ms;
    r.counts[clock + "_p99_ms"] = w.p99_ms;
    r.counts[clock + "_ops_per_s"] = w.ops_per_s;
    r.counts[clock + "_all_windows_p50_ms"] = w.all_p50_ms;
    r.counts[clock + "_all_windows_p99_ms"] = w.all_p99_ms;
    r.counts[clock + "_all_windows_ops_per_s"] = w.all_ops_per_s;
    return w;
}

/** How far the host ran from its nominal speed over a run. */
void
reportGauge(RunResult &r, const SpeedGauge &gauge)
{
    r.counts["gauge_samples"] = static_cast<double>(gauge.size());
    r.counts["gauge_median_ms"] = gauge.medianMs();
    r.counts["gauge_nominal_ms"] = SpeedGauge::kNominalMs;
}

/**
 * latency_p50_ms and cpu_ms_per_op from operations timed on a CPU
 * clock and scaled to the nominal host speed. Each sample's end_s is
 * the scaled CPU time used up to the end of its operation, so
 * windowStats keeps the windows that spent the least of it per
 * operation, and its rate is operations per scaled CPU second.
 */
void
setCpuLatency(RunResult &r, const std::vector<Sample> &cpu,
              std::size_t cycle, const SpeedGauge &gauge)
{
    const WindowStats w = reportWindows(r, cpu, cycle, "cpu");
    r.values["latency_p50_ms"] = w.p50_ms;
    r.values["cpu_ms_per_op"] = w.ops_per_s > 0.0 ? 1e3 / w.ops_per_s : 0.0;
    reportGauge(r, gauge);
}

/** Appends an operation that took `cpu_ms` to a CPU-clock timeline. */
void
pushCpu(std::vector<Sample> &timeline, double cpu_ms, bool ok)
{
    const double before = timeline.empty() ? 0.0 : timeline.back().end_s;
    timeline.push_back({before + cpu_ms / 1e3, cpu_ms, ok});
}

/** How much longer an operation took with spans recorded: the traced
 *  half's mean latency over the untraced half's. In a closed loop this
 *  is the throughput cost, without counting whole operations. */
void
setTraceOverhead(RunResult &r, const std::vector<Sample> &untraced,
                 const std::vector<Sample> &traced)
{
    const double base = mean(msOf(untraced));
    r.values["bench.trace_overhead_pct"] =
        base > 0.0 ? (mean(msOf(traced)) / base - 1.0) * 100.0 : 0.0;
}

/** Layer rows per operation; the residual is whatever they leave of
 *  the whole, so rows plus residual sum to the whole by construction. */
void
setLedger(RunResult &r, double whole_us,
          const std::map<std::string, double> &rows_us)
{
    double rest = whole_us;
    for (const char *layer : kLayers) {
        const auto it = rows_us.find(layer);
        const double v = it == rows_us.end() ? 0.0 : it->second;
        r.values[std::string("ledger.") + layer + "_us"] = v;
        rest -= v;
    }
    r.values["ledger.whole_us"] = whole_us;
    r.values["ledger.unattributed_us"] = rest;
    r.counts["ledger_unattributed_share"] =
        whole_us > 0.0 ? rest / whole_us : 0.0;
}

using SpanTotals = std::map<std::string, std::pair<double, std::size_t>>;

double
totalUs(const SpanTotals &t, const char *name)
{
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second.first / 1e3;
}

double
perCallUs(const SpanTotals &t, const char *name)
{
    const auto it = t.find(name);
    return it == t.end() || it->second.second == 0
               ? 0.0
               : it->second.first / 1e3 /
                     static_cast<double>(it->second.second);
}

/** Stage-cache counters summed over pipelines or a server window. */
struct StageTally
{
    double hits[4] = {};
    double lookups[4] = {};
    double evaluations = 0.0;

    void
    add(const PipelineStats &s)
    {
        const CacheStats *cs[4] = {&s.tensor, &s.binding, &s.flat,
                                   &s.layer};
        for (int i = 0; i < 4; ++i) {
            hits[i] += static_cast<double>(cs[i]->hits);
            lookups[i] += static_cast<double>(cs[i]->hits + cs[i]->misses);
        }
        evaluations += static_cast<double>(s.evaluations);
    }

    /** Hit ratios (hits over lookups) and evaluations per operation. */
    void
    report(RunResult &r, double ops) const
    {
        for (int i = 0; i < 4; ++i)
            r.values[std::string("core.stage_hit_ratio.") + kStages[i]] =
                lookups[i] > 0.0 ? hits[i] / lookups[i] : 0.0;
        r.counts["core_stage_lookups"] =
            lookups[0] + lookups[1] + lookups[2] + lookups[3];
        r.values["core.evaluations"] = ops > 0.0 ? evaluations / ops : 0.0;
    }
};

/** Every (layer, dataflow) analysis a request selects, through one
 *  pipeline, so a render over it afterwards runs fully warm. */
void
analyzeAll(const serve::RequestInputs &in,
           const std::shared_ptr<AnalysisPipeline> &pipeline,
           const EnergyModel &energy)
{
    const Analyzer analyzer(in.config, energy, pipeline);
    for (const Dataflow &df : in.dataflows) {
        if (in.layer_name) {
            analyzer.analyzeLayer(in.network.layer(*in.layer_name), df);
            continue;
        }
        for (const Layer &layer : in.network.layers())
            analyzer.analyzeLayer(layer, df);
    }
}

/**
 * The server's handler on one request, in process and through one
 * shared pipeline like the server's: the reference every response is
 * compared against and, when traced, the source of the per-layer
 * split of the handler's time.
 */
class Replayer
{
  public:
    /** (status, body) exactly as the server renders them. */
    std::pair<int, std::string>
    run(const Request &req, Tracer &tracer, std::uint64_t op)
    {
        try {
            serve::RequestInputs in;
            {
                ScopedSpan span(tracer, "frontend", op);
                in = serve::resolveRequest(req.body, req.query, config_);
            }
            if (req.path == "/dse") {
                ScopedSpan span(tracer, "dse", op);
                return {200,
                        serve::dseJson(in, req.query, pipeline_, energy_)};
            }
            if (tracer.enabled()) {
                // The analysis alone first, so the handler call below
                // renders over a warm pipeline.
                ScopedSpan span(tracer, "core", op);
                analyzeAll(in, pipeline_, energy_);
            }
            if (req.path == "/simulate") {
                ScopedSpan span(tracer, "sim", op);
                return {200, serve::simulateJson(in, req.query, pipeline_,
                                                 energy_)};
            }
            ScopedSpan span(tracer, "common", op);
            return {200, serve::analyzeJson(in, pipeline_, energy_)};
        } catch (const Error &e) {
            return {400, serve::errorJson(e.what())};
        } catch (const std::exception &e) {
            return {500, serve::errorJson(e.what())};
        }
    }

  private:
    std::shared_ptr<AnalysisPipeline> pipeline_ =
        std::make_shared<AnalysisPipeline>();
    EnergyModel energy_;
    AcceleratorConfig config_ = AcceleratorConfig::paperStudy();
};

// ------------------------------------------------------------- serving

/** Server counters read from GET /stats and GET /metrics. */
struct ServerSnapshot
{
    bool ok = false;
    double hits = 0, misses = 0, evictions = 0, rejected = 0;
    double evaluations = 0;
    double stage_hits[4] = {}, stage_lookups[4] = {};
    double run_sum = 0, run_count = 0, wait_sum = 0, wait_count = 0;
    double analysis_us = 0; ///< server-side latency, analysis endpoints
    double obs_us = 0;      ///< server-side latency, /metrics + /stats
    double metrics_bytes = 0;
};

ServerSnapshot
snapshot(HttpConnection &conn)
{
    ServerSnapshot s;
    const std::vector<Request> scrapes = hotScrapes();
    std::string metrics, stats;
    if (conn.roundTrip(scrapes[0].wire(), &metrics) != 200 ||
        conn.roundTrip(scrapes[1].wire(), &stats) != 200)
        return s;
    const std::vector<std::string> cache = {"\"result_cache\":"};
    const std::vector<std::string> responses = {"\"responses\":"};
    s.hits = jsonNumber(stats, cache, "hits");
    s.misses = jsonNumber(stats, cache, "misses");
    s.evictions = jsonNumber(stats, cache, "evictions");
    s.rejected = jsonNumber(stats, responses, "deadline_408") +
                 jsonNumber(stats, responses, "throttled_429") +
                 jsonNumber(stats, responses, "rejected_503");
    s.evaluations = jsonNumber(stats, {"\"pipeline\":"}, "evaluations");
    s.ok = s.hits >= 0 && s.misses >= 0 && s.evaluations >= 0;
    for (int i = 0; i < 4; ++i) {
        const std::vector<std::string> at = {
            "\"pipeline\":", "\"stages\":",
            std::string("\"") + kStages[i] + "\":"};
        const double h = jsonNumber(stats, at, "hits");
        const double m = jsonNumber(stats, at, "misses");
        s.ok = s.ok && h >= 0 && m >= 0;
        s.stage_hits[i] = h;
        s.stage_lookups[i] = h + m;
    }
    s.run_sum = promSum(metrics, "maestro_run_us_sum", "");
    s.run_count = promSum(metrics, "maestro_run_us_count", "");
    s.wait_sum = promSum(metrics, "maestro_queue_wait_us_sum", "");
    s.wait_count = promSum(metrics, "maestro_queue_wait_us_count", "");
    for (const char *ep : {"analyze", "simulate", "dse"})
        s.analysis_us += promSum(metrics, "maestro_endpoint_latency_us_sum",
                                 std::string("endpoint=\"") + ep + "\"");
    for (const char *ep : {"metrics", "stats"})
        s.obs_us += promSum(metrics, "maestro_endpoint_latency_us_sum",
                            std::string("endpoint=\"") + ep + "\"");
    s.metrics_bytes = static_cast<double>(metrics.size());
    return s;
}

/** Counter growth from `a` to `b`. */
ServerSnapshot
delta(const ServerSnapshot &a, const ServerSnapshot &b)
{
    ServerSnapshot d;
    d.ok = a.ok && b.ok;
    d.hits = b.hits - a.hits;
    d.misses = b.misses - a.misses;
    d.evictions = b.evictions - a.evictions;
    d.rejected = b.rejected - a.rejected;
    d.evaluations = b.evaluations - a.evaluations;
    for (int i = 0; i < 4; ++i) {
        d.stage_hits[i] = b.stage_hits[i] - a.stage_hits[i];
        d.stage_lookups[i] = b.stage_lookups[i] - a.stage_lookups[i];
    }
    d.run_sum = b.run_sum - a.run_sum;
    d.run_count = b.run_count - a.run_count;
    d.wait_sum = b.wait_sum - a.wait_sum;
    d.wait_count = b.wait_count - a.wait_count;
    d.analysis_us = b.analysis_us - a.analysis_us;
    d.obs_us = b.obs_us - a.obs_us;
    d.metrics_bytes = b.metrics_bytes;
    return d;
}

/** Server-side figures of a traced window, per operation. */
void
reportServerWindow(RunResult &r, const ServerSnapshot &d, double ops)
{
    if (!d.ok) {
        r.fail("could not read the server counters around the traced half");
        return;
    }
    StageTally stages;
    for (int i = 0; i < 4; ++i) {
        stages.hits[i] = d.stage_hits[i];
        stages.lookups[i] = d.stage_lookups[i];
    }
    stages.evaluations = d.evaluations;
    stages.report(r, ops);
    r.values["serve.queue_wait_us"] =
        d.wait_count > 0 ? d.wait_sum / d.wait_count : 0.0;
    r.values["serve.run_us"] = d.run_count > 0 ? d.run_sum / d.run_count : 0.0;
    r.values["serve.result_cache_hit_ratio"] =
        d.hits + d.misses > 0 ? d.hits / (d.hits + d.misses) : 0.0;
    r.counts["serve_result_cache_lookups"] = d.hits + d.misses;
    r.values["serve.result_cache_evictions"] = d.evictions;
    r.values["serve.rejected"] = d.rejected;
}

/** Spawns the server kServerSetupReps times (each drained with
 *  SIGTERM), reports the median spawn-to-first-200, scaled to the
 *  nominal host speed, as setup_s, and keeps the last one serving. */
std::unique_ptr<ServerChild>
startServer(const Options &o, RunResult &r)
{
    std::vector<double> setups;
    std::unique_ptr<ServerChild> server;
    SpeedGauge gauge;
    gauge.prime();
    for (int i = 0; i < kServerSetupReps; ++i) {
        if (server && !server->stop())
            r.fail("a set-up server did not drain to exit 0 on SIGTERM");
        const auto t0 = Clock::now();
        server = std::make_unique<ServerChild>(
            o.maestro, o.out_dir + "/" + o.workload + "-server.log");
        if (!server->waitReady(30.0)) {
            r.fail("the server never answered GET /healthz");
            return nullptr;
        }
        setups.push_back(secondsSince(t0) * gauge.scaleAt(Clock::now()));
        gauge.sample();
    }
    r.values["setup_s"] = median(setups);
    return server;
}

/** Stops the measured server: it must drain on SIGTERM and exit 0. */
void
stopServer(ServerChild &server, const Options &o, RunResult &r)
{
    if (!server.stop())
        r.fail(o.workload + ": the server did not drain to exit 0 on "
                            "SIGTERM");
    r.values["peak_rss_mb"] = static_cast<double>(server.maxrssKb()) / 1024.0;
    r.counts["peak_connections"] =
        static_cast<double>(HttpConnection::peakOpen());
    if (HttpConnection::peakOpen() > o.hw_threads)
        r.fail("the load generator held more connections than nproc");
}

/** What one serve client sent and received, operation by operation. */
struct ClientLog
{
    std::atomic<std::uint64_t> untraced_ops{0}; ///< read while running
    std::vector<int> status;
    std::vector<std::uint64_t> digest;
    std::vector<double> ms;
    std::vector<double> end_s; ///< seconds into the operation's phase
    std::vector<int> phase;
    Tracer tracer;
    ServerSnapshot traced_from, traced_to; ///< client 0 of a traced run
};

/** A closed loop over `next(i)` until the phases end. Client 0 of a
 *  traced run reads the server counters on its own connection around
 *  the traced half, so the load never holds an extra connection. */
template <typename NextRequest>
void
runClient(std::uint16_t port, const Phases &phases, std::size_t client,
          const Options &o, NextRequest next, ClientLog &log)
{
    HttpConnection conn(port);
    log.tracer = Tracer(o.trace);
    Tracer untraced;
    const bool snapshots = o.trace && client == 0;
    bool in_traced = false;
    std::string body;
    for (std::uint64_t i = 0;; ++i) {
        const std::string wire = next(i).wire();
        const int phase = phases.at(Clock::now());
        if (phase == 2)
            break;
        if (snapshots && phase == 1 && !in_traced) {
            log.traced_from = snapshot(conn);
            in_traced = true;
        }
        Tracer &tracer = phase == 1 ? log.tracer : untraced;
        const std::uint64_t op = (std::uint64_t(client) << 40) | i;
        const auto t0 = Clock::now();
        int status = 0;
        {
            ScopedSpan root(tracer, "op", op);
            ScopedSpan http(tracer, "serve", op, root.id());
            status = conn.roundTrip(wire, &body);
        }
        const auto t1 = Clock::now();
        log.ms.push_back(std::chrono::duration<double>(t1 - t0).count() *
                         1e3);
        log.end_s.push_back(std::chrono::duration<double>(
                                t1 - phases.start(std::max(phase, 0)))
                                .count());
        log.status.push_back(status);
        log.digest.push_back(digestOf(body));
        log.phase.push_back(phase);
        if (phase == 0)
            log.untraced_ops.fetch_add(1, std::memory_order_relaxed);
        if (status == 0)
            break;
    }
    if (in_traced)
        log.traced_to = snapshot(conn);
}

/** The server's CPU clock and the operations completed, read together
 *  at a window boundary of the untraced phase. */
struct CpuTick
{
    Clock::time_point at;
    double cpu_s;
    std::uint64_t ops;
};

/** How often the serve workloads sample their SpeedGauge. */
constexpr auto kGaugePeriod = std::chrono::milliseconds(50);

/** Runs `clients` closed loops concurrently against `server`. Meanwhile
 *  this thread samples `gauge` every kGaugePeriod and reads the
 *  server's CPU clock at the kWindows + 1 window boundaries of the
 *  untraced phase. */
template <typename MakeNext>
std::vector<ClientLog>
runClients(const ServerChild &server, const Phases &phases,
           std::size_t clients, const Options &o, MakeNext make_next,
           SpeedGauge &gauge, std::vector<CpuTick> *ticks)
{
    std::vector<ClientLog> logs(clients);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            runClient(server.port(), phases, c, o, make_next(c), logs[c]);
        });
    const auto untraced = phases.traced - phases.timed;
    for (long k = 0; k <= static_cast<long>(kWindows); ++k) {
        const Clock::time_point boundary =
            phases.timed + untraced * k / static_cast<long>(kWindows);
        while (Clock::now() + kGaugePeriod < boundary) {
            std::this_thread::sleep_for(kGaugePeriod);
            gauge.sample();
        }
        std::this_thread::sleep_until(boundary);
        std::uint64_t ops = 0;
        for (const ClientLog &log : logs)
            ops += log.untraced_ops.load(std::memory_order_relaxed);
        ticks->push_back({Clock::now(), server.cpuSeconds(), ops});
    }
    for (std::thread &t : threads)
        t.join();
    return logs;
}

/**
 * latency_p50_ms from the fastest windows' round trips, each scaled by
 * the gauge around it; cpu_ms_per_op from the kKeptWindows windows in
 * which the server spent the least scaled CPU time per operation.
 */
void
setServeLatency(RunResult &r, const Phases &phases,
                std::vector<Sample> untraced, std::size_t cycle,
                const SpeedGauge &gauge, const std::vector<CpuTick> &ticks)
{
    for (Sample &s : untraced)
        s.ms *= gauge.scaleAt(phases.timed + asDuration(s.end_s));
    r.values["latency_p50_ms"] =
        reportWindows(r, untraced, cycle, "wall").p50_ms;
    reportGauge(r, gauge);
    std::vector<std::pair<double, double>> windows; // (cpu_s, ops)
    for (std::size_t k = 1; k < ticks.size(); ++k) {
        if (ticks[k - 1].cpu_s < 0.0 || ticks[k].cpu_s < 0.0) {
            r.fail("could not read the server's CPU time");
            return;
        }
        if (ticks[k].ops > ticks[k - 1].ops)
            windows.emplace_back(
                (ticks[k].cpu_s - ticks[k - 1].cpu_s) *
                    gauge.scaleBetween(ticks[k - 1].at, ticks[k].at),
                static_cast<double>(ticks[k].ops - ticks[k - 1].ops));
    }
    std::sort(windows.begin(), windows.end(),
              [](const auto &a, const auto &b) {
                  return a.first / a.second < b.first / b.second;
              });
    windows.resize(std::min(windows.size(), kKeptWindows));
    double cpu_s = 0.0, ops = 0.0;
    for (const auto &[c, n] : windows) {
        cpu_s += c;
        ops += n;
    }
    r.values["cpu_ms_per_op"] = ops > 0.0 ? cpu_s * 1e3 / ops : 0.0;
}

/** The operations of one phase, all clients, in completion order. */
std::vector<Sample>
phaseSamples(const std::vector<ClientLog> &logs, int phase)
{
    std::vector<Sample> samples;
    for (const ClientLog &log : logs)
        for (std::size_t i = 0; i < log.ms.size(); ++i)
            if (log.phase[i] == phase)
                samples.push_back(
                    {log.end_s[i], log.ms[i], log.status[i] == 200});
    std::stable_sort(samples.begin(), samples.end(),
                     [](const Sample &a, const Sample &b) {
                         return a.end_s < b.end_s;
                     });
    return samples;
}

// ---------------------------------------------------------------- CLI

/** stdout minus the dse rate line (wall-clock), so every remaining
 *  byte is a pure function of the inputs. */
std::string
stableOutput(const std::string &out)
{
    std::string kept;
    std::size_t pos = 0;
    while (pos < out.size()) {
        std::size_t end = out.find('\n', pos);
        end = end == std::string::npos ? out.size() : end + 1;
        if (out.compare(pos, 9, "explored ") != 0)
            kept.append(out, pos, end - pos);
        pos = end;
    }
    return kept;
}

struct CliTally
{
    StageTally stages;
    double dse_points = 0.0;
    double dse_valid = 0.0;
    std::size_t calls = 0;
};

/**
 * Cold in-process replay of CLI command `index` of cliCommands(): the
 * library calls the CLI makes, on a fresh zoo network and pipeline,
 * under layer spans. Returns what a --format json command prints.
 */
std::string
replayCli(std::size_t index, const std::string &dsl, Tracer &tracer,
          std::uint64_t op, CliTally &tally)
{
    const AcceleratorConfig config = AcceleratorConfig::paperStudy();
    const EnergyModel energy;
    auto pipeline = std::make_shared<AnalysisPipeline>();
    serve::RequestInputs req;
    std::string out;
    const auto loadModel = [&](const char *name) {
        ScopedSpan span(tracer, "model", op);
        req.network = zoo::byName(name);
    };
    switch (index) {
    case 0: { // analyze --model vgg16 --layer CONV2 --dataflow KC-P
        loadModel("vgg16");
        ScopedSpan span(tracer, "core", op);
        const Analyzer analyzer(config, energy, pipeline);
        analyzer.analyzeLayer(req.network.layer("CONV2"),
                              dataflows::byName("KC-P"));
        break;
    }
    case 1:   // analyze --model resnet50 --dataflow KC-P --format json
    case 3: { // simulate --model alexnet --layer CONV2 --dataflow KC-P
              //          --format json
        loadModel(index == 1 ? "resnet50" : "alexnet");
        req.dataflows = {dataflows::byName("KC-P")};
        if (index == 3)
            req.layer_name = "CONV2";
        {
            ScopedSpan span(tracer, "core", op);
            analyzeAll(req, pipeline, energy);
        }
        if (index == 1) {
            ScopedSpan span(tracer, "common", op);
            out = serve::analyzeJson(req, pipeline, energy) + "\n";
        } else {
            ScopedSpan span(tracer, "sim", op);
            out = serve::simulateJson(req, {{"layer", "CONV2"}}, pipeline,
                                      energy) +
                  "\n";
        }
        break;
    }
    case 2: { // dse --model vgg16 --layer CONV2 --dataflow KC-P
        loadModel("vgg16");
        ScopedSpan span(tracer, "dse", op);
        const dse::Explorer explorer(config, AreaPowerModel(), energy,
                                     pipeline);
        const dse::DseResult res = explorer.explore(
            req.network.layer("CONV2"), dataflows::byName("KC-P"),
            dse::DesignSpace::figure13(), dse::DseOptions());
        tally.dse_points += res.explored_points;
        tally.dse_valid += res.valid_points;
        break;
    }
    default: { // analyze --file NET.m --format json
        {
            ScopedSpan span(tracer, "frontend", op);
            req.network = frontend::parseString(dsl).networks.front();
        }
        req.dataflows = dataflows::table3();
        {
            ScopedSpan span(tracer, "core", op);
            analyzeAll(req, pipeline, energy);
        }
        ScopedSpan span(tracer, "common", op);
        out = serve::analyzeJson(req, pipeline, energy) + "\n";
        break;
    }
    }
    tally.stages.add(pipeline->stats());
    ++tally.calls;
    return out;
}

std::vector<std::string>
argvFor(const Options &o, const CliCommand &cmd)
{
    std::vector<std::string> argv = {o.maestro};
    argv.insert(argv.end(), cmd.args.begin(), cmd.args.end());
    return argv;
}

// -------------------------------------------------------------- search

/** Bit-exact identity of a design point. */
std::string
pointKey(const dse::DesignPoint &p)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%lld/%lld/%lld/%a/%a/%a/%a/%a/%a/%a/%a/%a/%d;",
                  static_cast<long long>(p.num_pes),
                  static_cast<long long>(p.l1_bytes),
                  static_cast<long long>(p.l2_bytes), p.noc_bandwidth,
                  p.area, p.power, p.runtime, p.throughput, p.energy, p.edp,
                  p.l1_required, p.l2_required, p.valid ? 1 : 0);
    return buf;
}

/** The bests and point accounting the fast sweep must share with the
 *  exact grid walk. */
std::string
dseKey(const dse::DseResult &r)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%a/%a", r.explored_points,
                  r.valid_points);
    return pointKey(r.best_throughput) + pointKey(r.best_energy) +
           pointKey(r.best_edp) + buf;
}

/** The winning mapping and its objective value. */
std::string
mapperKey(const mapper::MapperResult &r)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", r.best().objective_value);
    return r.best().dataflow.toString() + buf;
}

} // namespace

// ================================================================ cli_cold

RunResult
runCliCold(const Options &o)
{
    RunResult r;
    const std::string dsl_path = o.out_dir + "/cli_net.m";
    const std::string err_path = o.out_dir + "/cli_cold-stderr.log";
    std::string dsl;
    std::vector<CliCommand> cmds;

    // Set-up: input generation plus one untimed exec, on the driver's
    // and the child's CPU clocks, scaled like every other time.
    SpeedGauge gauge;
    gauge.prime();
    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i) {
        const double cpu0_ms = threadCpuMs();
        dsl = cliNetworkDsl(o.seed);
        std::ofstream(dsl_path, std::ios::binary) << dsl;
        cmds = cliCommands(dsl_path);
        const ExecResult e = runChild(argvFor(o, cmds.front()), err_path);
        if (!e.exited_zero)
            r.fail("the untimed set-up exec failed");
        setups.push_back((threadCpuMs() - cpu0_ms + e.cpu_ms) / 1e3 *
                         gauge.scaleAt(Clock::now()));
    }
    r.values["setup_s"] = median(setups);

    // What the --format json commands must print.
    Tracer off;
    CliTally unused;
    std::vector<std::string> expected(cmds.size());
    try {
        for (std::size_t i = 0; i < cmds.size(); ++i)
            if (cmds[i].json)
                expected[i] = replayCli(i, dsl, off, 0, unused);
    } catch (const std::exception &e) {
        r.fail(std::string("in-process reference failed: ") + e.what());
        return r;
    }

    std::vector<std::optional<std::string>> reference(cmds.size());
    const Phases phases = Phases::after(0.0, o);
    std::vector<Sample> samples[2], cpu;
    std::vector<double> version_ms;
    // Each command's peak resident sets: the metric is the largest
    // command's median, which one outlying child cannot move.
    std::vector<std::vector<double>> rss_kb(cmds.size());
    for (std::uint64_t k = 0;; ++k) {
        const int phase = phases.at(Clock::now());
        if (phase == 2)
            break;
        Tracer &tracer = phase == 1 ? r.spans : off;
        const std::size_t ci = k % cmds.size();
        const auto t0 = Clock::now();
        ExecResult e;
        {
            ScopedSpan root(tracer, "op", k);
            ScopedSpan process(tracer, "process", k, root.id());
            e = runChild(argvFor(o, cmds[ci]), err_path);
        }
        const auto t1 = Clock::now();
        Sample &sample = samples[phase].emplace_back();
        sample.ms = std::chrono::duration<double>(t1 - t0).count() * 1e3;
        sample.end_s =
            std::chrono::duration<double>(t1 - phases.start(phase)).count();
        rss_kb[ci].push_back(static_cast<double>(e.maxrss_kb));
        ++r.attempted;
        bool good = e.exited_zero;
        if (good && cmds[ci].json) {
            good = e.out == expected[ci];
        } else if (good) {
            // Table output: one digest across every run of a command.
            std::string stable = stableOutput(e.out);
            if (!reference[ci])
                reference[ci] = std::move(stable);
            else
                good = *reference[ci] == stable;
        }
        sample.ok = good;
        if (phase == 0)
            pushCpu(cpu, e.cpu_ms * gauge.scaleAt(t1), good);
        if (!good) {
            ++r.failed;
            if (r.failed <= 3)
                r.fail(cmds[ci].label + ": nonzero exit or wrong stdout");
        }
        if (phase == 0 && ci + 1 == cmds.size())
            gauge.sample();
        // The process layer's floor: an exec that does no work.
        if (phase == 1 && ci + 1 == cmds.size()) {
            const auto v0 = Clock::now();
            if (!runChild({o.maestro, "--version"}, err_path).exited_zero)
                r.fail("maestro --version failed");
            version_ms.push_back(secondsSince(v0) * 1e3);
        }
    }
    double peak_kb = 0.0;
    for (const std::vector<double> &kb : rss_kb)
        peak_kb = std::max(peak_kb, median(kb));
    r.values["peak_rss_mb"] = peak_kb / 1024.0;

    if (!o.trace) {
        reportWindows(r, samples[0], cmds.size(), "wall");
        setCpuLatency(r, cpu, cmds.size(), gauge);
        return r;
    }
    setTraceOverhead(r, samples[0], samples[1]);

    // Cold replays of every command, kCliReplays times, under spans.
    Tracer replay(true);
    CliTally tally;
    try {
        for (int rep = 0; rep < kCliReplays; ++rep)
            for (std::size_t i = 0; i < cmds.size(); ++i)
                replayCli(i, dsl, replay, (1ull << 48) | tally.calls, tally);
    } catch (const std::exception &e) {
        r.fail(std::string("in-process replay failed: ") + e.what());
        return r;
    }
    const SpanTotals ops = r.spans.totals();
    const SpanTotals t = replay.totals();
    r.spans.absorb(replay);
    const double replays = static_cast<double>(tally.calls);
    const auto op_it = ops.find("op");
    const double whole_us =
        op_it == ops.end() ? 0.0
                           : op_it->second.first / 1e3 /
                                 static_cast<double>(op_it->second.second);

    std::map<std::string, double> rows;
    double replayed_us = 0.0;
    for (const char *layer : {"model", "frontend", "core", "dse", "sim",
                              "common"}) {
        rows[layer] = totalUs(t, layer) / replays;
        replayed_us += rows[layer];
    }
    const double version = median(version_ms);
    rows["process"] = version * 1e3;
    setLedger(r, whole_us, rows);
    r.counts["version_samples"] = static_cast<double>(version_ms.size());
    r.counts["cli_replays"] = replays;

    r.values["process.version_ms"] = version;
    r.values["process.unattributed_ms"] = (whole_us - replayed_us) / 1e3;
    r.values["model.zoo_ms"] = perCallUs(t, "model") / 1e3;
    r.values["frontend.parse_us"] = perCallUs(t, "frontend");
    r.values["core.analyze_us"] = perCallUs(t, "core");
    tally.stages.report(r, replays);
    const auto dse_calls = static_cast<double>(kCliReplays);
    r.values["dse.explore_ms"] = perCallUs(t, "dse") / 1e3;
    r.values["dse.points"] = tally.dse_points / dse_calls;
    r.values["dse.valid_points"] = tally.dse_valid / dse_calls;
    r.values["dse.points_per_s"] =
        tally.dse_points / std::max(1e-12, totalUs(t, "dse") / 1e6);
    r.values["sim.simulate_us"] = perCallUs(t, "sim");
    r.values["common.render_us"] = perCallUs(t, "common");
    return r;
}

// ============================================================== serve_cold

RunResult
runServeCold(const Options &o)
{
    RunResult r;
    std::unique_ptr<ServerChild> server = startServer(o, r);
    if (!server)
        return r;
    const std::size_t clients = clientCount(2, o.hw_threads);
    r.counts["clients"] = static_cast<double>(clients);
    const Phases phases = Phases::after(kServeWarmS, o);
    SpeedGauge gauge;
    std::vector<CpuTick> ticks;
    std::vector<ClientLog> logs = runClients(
        *server, phases, clients, o,
        [&](std::size_t c) {
            return [stream = std::make_shared<ColdStream>(o.seed, c)](
                       std::uint64_t) { return stream->next(); };
        },
        gauge, &ticks);

    // Mechanism guard: a cold stream never hits the result cache.
    ServerSnapshot end;
    {
        HttpConnection conn(server->port());
        end = snapshot(conn);
    }
    if (!end.ok)
        r.fail("could not read GET /stats after the run");
    else if (end.hits != 0)
        r.fail("serve_cold: the result cache hit " +
               std::to_string(static_cast<long long>(end.hits)) +
               " times; every body must miss");
    stopServer(*server, o, r);

    // Every response against the in-process handler on the same body
    // and query, one verifier thread per client stream.
    struct Check
    {
        std::uint64_t attempted = 0, failed = 0;
        std::vector<double> handler_us;
        Tracer tracer;
        std::string problem;
    };
    std::vector<Check> checks(clients);
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < clients; ++c)
            threads.emplace_back([&, c] {
                Check &check = checks[c];
                check.tracer = Tracer(o.trace);
                Replayer replayer;
                ColdStream stream(o.seed, c);
                const ClientLog &log = logs[c];
                for (std::size_t i = 0; i < log.status.size(); ++i) {
                    const Request req = stream.next();
                    const auto t0 = Clock::now();
                    const auto [status, body] = replayer.run(
                        req, check.tracer,
                        (1ull << 48) | (std::uint64_t(c) << 40) | i);
                    check.handler_us.push_back(secondsSince(t0) * 1e6);
                    ++check.attempted;
                    if (log.status[i] == 200 && status == 200 &&
                        digestOf(body) == log.digest[i])
                        continue;
                    ++check.failed;
                    if (check.problem.empty())
                        check.problem =
                            req.target() + ": server " +
                            std::to_string(log.status[i]) +
                            ", in-process " + std::to_string(status) + " " +
                            body.substr(0, 200);
                }
            });
        for (std::thread &t : threads)
            t.join();
    }
    std::vector<double> handler_us;
    for (const Check &check : checks) {
        r.attempted += check.attempted;
        r.failed += check.failed;
        if (!check.problem.empty())
            r.fail("response mismatch: " + check.problem);
        handler_us.insert(handler_us.end(), check.handler_us.begin(),
                          check.handler_us.end());
    }

    const std::vector<Sample> untraced = phaseSamples(logs, 0);
    if (!o.trace) {
        setServeLatency(r, phases, untraced, 1, gauge, ticks);
        return r;
    }
    const std::vector<Sample> traced = phaseSamples(logs, 1);
    setTraceOverhead(r, untraced, traced);

    Tracer client_spans(true), replay_spans(true);
    for (const ClientLog &log : logs)
        client_spans.absorb(log.tracer);
    for (const Check &check : checks)
        replay_spans.absorb(check.tracer);
    const SpanTotals ct = client_spans.totals();
    const SpanTotals rt = replay_spans.totals();
    r.spans.absorb(client_spans);
    r.spans.absorb(replay_spans);

    const ServerSnapshot d = delta(logs[0].traced_from, logs[0].traced_to);
    const auto op_it = ct.find("op");
    const double ops =
        op_it == ct.end() ? 0.0 : static_cast<double>(op_it->second.second);
    reportServerWindow(r, d, ops);
    if (ops > 0.0 && d.ok) {
        // The server's own time splits into handler run time and the
        // rest (framing, admission, queueing, result-cache probe); the
        // run time splits by the in-process replay's layer shares; the
        // rest of the round trip (loopback, client) is unattributed.
        std::map<std::string, double> rows;
        rows["serve"] = (d.analysis_us - d.run_sum) / ops;
        const char *handler_layers[] = {"frontend", "core", "sim", "dse",
                                        "common"};
        double replayed = 0.0;
        for (const char *layer : handler_layers)
            replayed += totalUs(rt, layer);
        for (const char *layer : handler_layers)
            rows[layer] = replayed > 0.0 ? d.run_sum / ops *
                                               totalUs(rt, layer) / replayed
                                         : 0.0;
        setLedger(r, op_it->second.first / 1e3 / ops, rows);
    }
    r.values["frontend.parse_us"] = perCallUs(rt, "frontend");
    r.values["core.analyze_us"] = perCallUs(rt, "core");
    r.values["sim.simulate_us"] = perCallUs(rt, "sim");
    r.values["dse.explore_ms"] = perCallUs(rt, "dse") / 1e3;
    r.values["common.render_us"] = perCallUs(rt, "common");
    const double handler = median(handler_us);
    r.values["serve.handler_us"] = handler;
    r.values["serve.overhead_us"] = median(msOf(traced)) * 1e3 - handler;
    return r;
}

// =============================================================== serve_hot

RunResult
runServeHot(const Options &o)
{
    RunResult r;
    const std::vector<Request> set = hotWorkingSet(o.seed);
    const std::vector<Request> scrapes = hotScrapes();

    // The bodies every hit must carry, and the handler time a hit saves.
    std::vector<std::uint64_t> expected;
    std::vector<double> handler_us;
    {
        Replayer replayer;
        Tracer off;
        for (const Request &req : set) {
            const auto t0 = Clock::now();
            const auto [status, body] = replayer.run(req, off, 0);
            handler_us.push_back(secondsSince(t0) * 1e6);
            if (status != 200)
                r.fail("working-set request failed in process: " +
                       body.substr(0, 200));
            expected.push_back(digestOf(body));
        }
    }

    std::unique_ptr<ServerChild> server = startServer(o, r);
    if (!server)
        return r;
    // Fill the result cache: each working-set POST once.
    ServerSnapshot filled;
    {
        HttpConnection conn(server->port());
        std::string body;
        for (std::size_t i = 0; i < set.size(); ++i) {
            ++r.attempted;
            if (conn.roundTrip(set[i].wire(), &body) != 200 ||
                digestOf(body) != expected[i])
                ++r.failed;
        }
        filled = snapshot(conn);
    }
    // One client: a closed loop whose only contention is the server's.
    const std::size_t clients = clientCount(1, o.hw_threads);
    r.counts["clients"] = static_cast<double>(clients);
    const Phases phases = Phases::after(kServeWarmS, o);
    SpeedGauge gauge;
    std::vector<CpuTick> ticks;
    std::vector<ClientLog> logs = runClients(
        *server, phases, clients, o,
        [&](std::size_t c) {
            return [&, c](std::uint64_t i) -> const Request & {
                return hotRequest(set, scrapes, o.seed, c, i);
            };
        },
        gauge, &ticks);

    // Mechanism guard: once filled, every POST is a result-cache hit.
    ServerSnapshot end;
    {
        HttpConnection conn(server->port());
        end = snapshot(conn);
    }
    const ServerSnapshot run = delta(filled, end);
    const double lookups = run.hits + run.misses;
    r.counts["post_fill_hit_ratio"] = lookups > 0 ? run.hits / lookups : 0.0;
    if (!run.ok || lookups <= 0 || run.hits / lookups < 0.99)
        r.fail("serve_hot: post-warm-up result-cache hit ratio below 0.99");
    stopServer(*server, o, r);

    std::vector<double> metrics_us, stats_us, post_us;
    for (std::size_t c = 0; c < clients; ++c) {
        const ClientLog &log = logs[c];
        for (std::size_t i = 0; i < log.status.size(); ++i) {
            const Request &req = hotRequest(set, scrapes, o.seed, c, i);
            ++r.attempted;
            bool good = log.status[i] == 200;
            if (req.method == "POST") {
                good = good && log.digest[i] ==
                                   expected[static_cast<std::size_t>(
                                       &req - set.data())];
                if (log.phase[i] == 1)
                    post_us.push_back(log.ms[i] * 1e3);
            } else if (log.phase[i] == 1) {
                (req.path == "/metrics" ? metrics_us : stats_us)
                    .push_back(log.ms[i] * 1e3);
            }
            if (!good && ++r.failed <= 3)
                r.fail("serve_hot: " + req.target() + " answered " +
                       std::to_string(log.status[i]) +
                       " or a body that differs from the handler's");
        }
    }

    const std::vector<Sample> untraced = phaseSamples(logs, 0);
    if (!o.trace) {
        setServeLatency(r, phases, untraced, kHotCycle * clients, gauge,
                        ticks);
        return r;
    }
    setTraceOverhead(r, untraced, phaseSamples(logs, 1));

    Tracer client_spans(true);
    for (const ClientLog &log : logs)
        client_spans.absorb(log.tracer);
    const SpanTotals ct = client_spans.totals();
    r.spans.absorb(client_spans);
    const ServerSnapshot d = delta(logs[0].traced_from, logs[0].traced_to);
    const auto op_it = ct.find("op");
    const double ops =
        op_it == ct.end() ? 0.0 : static_cast<double>(op_it->second.second);
    reportServerWindow(r, d, ops);
    if (ops > 0.0 && d.ok) {
        // Hits never reach a handler: the server's time is serve work
        // (analysis endpoints) or obs work (scrapes); the rest of the
        // round trip is unattributed.
        setLedger(r, op_it->second.first / 1e3 / ops,
                  {{"serve", d.analysis_us / ops}, {"obs", d.obs_us / ops}});
    }
    r.values["obs.metrics_scrape_us"] = median(metrics_us);
    r.values["obs.stats_scrape_us"] = median(stats_us);
    r.values["obs.metrics_bytes"] = end.metrics_bytes;
    r.values["serve.handler_us"] = median(handler_us);
    // A hit runs no handler, so the whole round trip is overhead.
    r.values["serve.overhead_us"] = median(post_us);
    r.counts["metrics_scrapes"] = static_cast<double>(metrics_us.size());
    r.counts["stats_scrapes"] = static_cast<double>(stats_us.size());
    return r;
}

// ================================================================== search

RunResult
runSearch(const Options &o)
{
    RunResult r;
    Tracer off;
    Tracer &setup_tracer = o.trace ? r.spans : off;

    // Inputs: the zoo network, the catalog dataflow, the Fig. 13 space
    // and the crossval batch. The batch is the CLI's default one: the
    // cost of a drawn batch swings twofold with its seed, so the seed
    // orders each round's calls instead (searchRound).
    Network vgg("none");
    Dataflow kcp("none");
    dse::DesignSpace space;
    crossval::CrossvalOptions cv;
    const auto buildInputs = [&] {
        {
            ScopedSpan span(setup_tracer, "model", 1ull << 48);
            vgg = zoo::vgg16();
        }
        kcp = dataflows::byName("KC-P");
        space = dse::DesignSpace::figure13();
        cv = crossval::CrossvalOptions();
        cv.triples = kCrossvalTriples;
    };
    buildInputs();
    const AcceleratorConfig config = AcceleratorConfig::paperStudy();

    std::optional<std::string> dse_ref, mapper_ref, crossval_ref;
    double dse_s = 0, dse_points = 0, dse_valid = 0, dse_calls = 0;
    double map_s = 0, covered = 0, evaluated = 0, map_calls = 0;
    double cv_s = 0, triples = 0, steps = 0, classes = 0, cv_calls = 0;
    crossval::CrossvalReport report;
    // The timed kernel calls (null during set-up), their CPU times and
    // their phase start.
    std::vector<Sample> *calls = nullptr;
    std::vector<Sample> *call_cpu = nullptr;
    Clock::time_point phase_start;
    SpeedGauge gauge;
    const auto record = [&](Clock::time_point t0, double cpu0_ms) {
        const double cpu_ms = threadCpuMs() - cpu0_ms;
        const auto t1 = Clock::now();
        const double s = std::chrono::duration<double>(t1 - t0).count();
        if (calls) {
            calls->push_back(
                {std::chrono::duration<double>(t1 - phase_start).count(),
                 s * 1e3, true});
            pushCpu(*call_cpu, cpu_ms * gauge.scaleAt(t1), true);
        }
        return s;
    };

    const auto dseCall = [&](Tracer &tracer, std::uint64_t op,
                             std::uint32_t parent) {
        const auto t0 = Clock::now();
        const double cpu0 = threadCpuMs();
        dse::DseResult res;
        {
            ScopedSpan span(tracer, "dse", op, parent);
            const dse::Explorer explorer(config, AreaPowerModel(),
                                         EnergyModel(),
                                         std::make_shared<AnalysisPipeline>());
            res = explorer.explore(vgg.layer("CONV2"), kcp, space,
                                   dse::DseOptions());
        }
        dse_s += record(t0, cpu0);
        dse_points += res.explored_points;
        dse_valid += res.valid_points;
        ++dse_calls;
        const std::string key = dseKey(res);
        const bool same = key == dse_ref.value_or(key);
        dse_ref = key;
        return same;
    };
    const auto mapperCall = [&](Tracer &tracer, std::uint64_t op,
                                std::uint32_t parent) {
        const auto t0 = Clock::now();
        const double cpu0 = threadCpuMs();
        mapper::MapperResult res;
        {
            ScopedSpan span(tracer, "mapper", op, parent);
            const Analyzer analyzer(config);
            res = mapper::mapLayer(analyzer, vgg.layer("CONV11"),
                                   mapper::Objective::Runtime);
        }
        map_s += record(t0, cpu0);
        covered += res.stats.covered;
        evaluated += static_cast<double>(res.stats.evaluated);
        ++map_calls;
        const std::string key = mapperKey(res);
        const bool same = key == mapper_ref.value_or(key);
        mapper_ref = key;
        return same;
    };
    const auto crossvalCall = [&](Tracer &tracer, std::uint64_t op,
                                  std::uint32_t parent) {
        const auto t0 = Clock::now();
        const double cpu0 = threadCpuMs();
        {
            ScopedSpan span(tracer, "sim", op, parent);
            report = crossval::runCrossval(cv);
        }
        cv_s += record(t0, cpu0);
        triples += static_cast<double>(report.evaluated);
        steps += report.total_steps;
        classes += report.total_classes;
        ++cv_calls;
        const std::string key = crossval::crossvalJson(cv, report);
        const bool same = key == crossval_ref.value_or(key);
        crossval_ref = key;
        return same;
    };

    // One round: kDseSweeps sweeps, one mapper search and one crossval
    // batch in the seeded order, each on a fresh pipeline; each call is
    // one operation. True when every result matched the first round's.
    const auto round = [&](Tracer &tracer, std::uint64_t op) {
        bool same = true;
        ScopedSpan root(tracer, "op", op);
        for (const int kind : searchRound(o.seed, op, kDseSweeps)) {
            const bool call_same =
                kind == 0   ? dseCall(tracer, op, root.id())
                : kind == 1 ? mapperCall(tracer, op, root.id())
                            : crossvalCall(tracer, op, root.id());
            same = same && call_same;
        }
        return same;
    };

    // Set-up: input construction plus one untimed round, which fills
    // caches, faults in pages, and fixes the references every timed
    // round must reproduce. Construction alone takes microseconds; the
    // round is where work moved out of the timed loop would land. Timed
    // on the thread's CPU clock and scaled like every other time.
    gauge.prime();
    std::vector<double> setups;
    for (int i = 0; i < kSearchSetupReps; ++i) {
        const double cpu0_ms = threadCpuMs();
        buildInputs();
        if (!round(off, 0))
            r.fail("search: a set-up round's results differ from the "
                   "first one's");
        setups.push_back((threadCpuMs() - cpu0_ms) / 1e3 *
                         gauge.scaleAt(Clock::now()));
        gauge.sample();
    }
    r.values["setup_s"] = median(setups);
    dse_s = dse_points = dse_valid = dse_calls = 0;
    map_s = covered = evaluated = map_calls = 0;
    cv_s = triples = steps = classes = cv_calls = 0;

    const Phases phases = Phases::after(0.0, o);
    std::vector<Sample> samples[2];
    std::vector<Sample> cpu[2];
    for (std::uint64_t k = 1;; ++k) {
        const int phase = phases.at(Clock::now());
        if (phase == 2)
            break;
        if (phase < 0)
            continue;
        calls = &samples[phase];
        call_cpu = &cpu[phase];
        phase_start = phases.start(phase);
        const std::size_t before = samples[phase].size();
        const bool same = round(phase == 1 ? r.spans : off, k);
        if (phase == 0)
            gauge.sample();
        r.attempted += samples[phase].size() - before;
        if (!same) {
            if (r.failed == 0)
                r.fail("search: a round's results differ from the first "
                       "round's");
            for (std::size_t i = before; i < samples[phase].size(); ++i)
                samples[phase][i].ok = cpu[phase][i].ok = false;
            r.failed += samples[phase].size() - before;
        }
    }
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    r.values["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;

    // Oracles. The fast DSE sweep's bests and accounting must equal the
    // exact grid walk's.
    {
        dse::DseOptions exact;
        exact.exact = true;
        const dse::Explorer explorer(config, AreaPowerModel(), EnergyModel(),
                                     std::make_shared<AnalysisPipeline>());
        if (dseKey(explorer.explore(vgg.layer("CONV2"), kcp, space,
                                    exact)) != *dse_ref)
            r.fail("dse: the fast sweep's bests differ from the exact walk");
    }
    // The pruned mapper must find the exhaustive oracle's winner, on a
    // layer and space small enough for the oracle to finish in seconds.
    {
        const Network small =
            frontend::parseString(
                "Network oracle {\n  Layer conv {\n    Type: CONV2D;\n"
                "    Dimensions { N: 1; K: 32; C: 16; Y: 14; X: 14; "
                "R: 3; S: 3; }\n  }\n}\n")
                .networks.front();
        mapper::MapperOptions pruned;
        pruned.space.cluster_sizes = {1, 4, 16};
        pruned.space.channel_tiles = {1, 8};
        mapper::MapperOptions exact = pruned;
        exact.exact = true;
        const Analyzer analyzer(config);
        const Layer &layer = small.layers().front();
        if (mapperKey(mapper::mapLayer(analyzer, layer,
                                       mapper::Objective::Runtime,
                                       pruned)) !=
            mapperKey(mapper::mapLayer(analyzer, layer,
                                       mapper::Objective::Runtime, exact)))
            r.fail("mapper: the pruned search's winner differs from the "
                   "exhaustive oracle's");
    }
    // Crossval counts MACs exactly, whatever the timing error.
    if (report.evaluated + report.skipped != report.requested ||
        report.macs.max_abs_pct > crossval::CrossvalGate().max_macs_pct)
        r.fail("crossval: MAC counts disagree or triples went missing");
    r.counts["crossval_gate_ok"] =
        crossval::checkGate(report, cv).ok ? 1.0 : 0.0;

    if (!o.trace) {
        reportWindows(r, samples[0], kSearchCycle, "wall");
        setCpuLatency(r, cpu[0], kSearchCycle, gauge);
        return r;
    }
    setTraceOverhead(r, samples[0], samples[1]);

    // The ledger is per kernel call, the workload's operation. Each
    // round's span covers its calls; the rows are the kernel spans' self
    // times and the residual is the round span's own.
    const SpanTotals t = r.spans.totals();
    const auto op_it = t.find("op");
    if (op_it != t.end() && !samples[1].empty()) {
        const auto ops = static_cast<double>(samples[1].size());
        const std::map<std::string, double> self = r.spans.selfNs();
        setLedger(r, op_it->second.first / 1e3 / ops,
                  {{"dse", self.at("dse") / 1e3 / ops},
                   {"mapper", self.at("mapper") / 1e3 / ops},
                   {"sim", self.at("sim") / 1e3 / ops}});
        r.counts["round_self_us_per_op"] = self.at("op") / 1e3 / ops;
    }
    r.values["model.zoo_ms"] = perCallUs(t, "model") / 1e3;
    r.values["dse.explore_ms"] = dse_s / dse_calls * 1e3;
    r.values["dse.points"] = dse_points / dse_calls;
    r.values["dse.valid_points"] = dse_valid / dse_calls;
    r.values["dse.points_per_s"] = dse_points / dse_s;
    r.values["mapper.map_ms"] = map_s / map_calls * 1e3;
    r.values["mapper.covered"] = covered / map_calls;
    r.values["mapper.evaluated"] = evaluated / map_calls;
    r.values["mapper.covered_per_evaluated"] = covered / evaluated;
    r.values["mapper.mappings_per_s"] = covered / map_s;
    r.values["sim.crossval_ms"] = cv_s / cv_calls * 1e3;
    r.values["sim.nest_steps"] = steps / cv_calls;
    r.values["sim.step_classes"] = classes / cv_calls;
    r.values["sim.steps_per_class"] = steps / classes;
    r.values["sim.triples_per_s"] = triples / cv_s;
    r.values["sim.cycle_err_mean_pct"] = report.cycles.meanAbsPct();
    r.values["sim.cycle_err_over25_pct"] =
        report.cycles.tailFraction() * 100.0;
    r.values["sim.l2_supply_err_mean_pct"] = report.l2_supply.meanAbsPct();
    return r;
}

} // namespace perfbench
