/**
 * @file
 * `maestro serve` — a long-lived analysis daemon over POSIX sockets.
 *
 * One process serves many clients over keep-alive HTTP/1.1. Its
 * routes are the rows of the endpoint table (src/serve/endpoints.hh):
 * POST analysis endpoints (analyze, dse, tune, simulate, crossval;
 * each also submittable as an async job under /jobs), the /jobs
 * store itself, and GET healthz/stats/metrics/events.
 *
 * Every response carries an X-Trace-Id header — the client-sent
 * x-trace-id echoed back, else a deterministic per-server sequence
 * number — so a request can be correlated with its span in a
 * `--trace` capture. Response BODIES stay byte-identical whether
 * tracing is on or off; wall-clock data lives only in /stats,
 * /metrics, and trace files.
 *
 * Architecture: an accept loop hands each connection to a tracked
 * connection thread (bounded count) that owns the socket's read ->
 * parse -> respond state machine. GET endpoints answer inline; POST
 * analysis work is dispatched through the shared ThreadPool behind
 * an AdmissionController — when the in-flight bound is hit the
 * connection answers 503 + Retry-After immediately (backpressure),
 * a per-client budget violation answers 429, and a per-request
 * wall-clock deadline turns into 408 without blocking the
 * connection on a stuck evaluation. The same deadline governs
 * header/body reads, so a slow-loris sender gets 408 and frees its
 * connection slot instead of pinning it.
 *
 * Every request evaluates through ONE shared AnalysisPipeline, so
 * stage caches stay warm across requests and clients: the second
 * identical query is served from the layer cache. Above the stage
 * caches sits a content-addressed ResultCache (canonical request ->
 * rendered response bytes) shared by the sync endpoints and the
 * async JobStore, so repeated requests skip evaluation entirely and
 * still serve byte-identical responses (X-Result-Cache: hit|miss).
 *
 * requestStop() is async-signal-safe; the CLI wires it to
 * SIGINT/SIGTERM for a graceful drain: /healthz flips to 503
 * "draining", open keep-alive connections get a short linger window
 * to finish one last request (answered with Connection: close),
 * queued jobs are cancelled, running work finishes, exit 0. For
 * multi-process scale-out (`--workers N`, SO_REUSEPORT) see
 * src/serve/workers.hh.
 */

#ifndef MAESTRO_SERVE_SERVER_HH
#define MAESTRO_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/thread_pool.hh"
#include "src/obs/event_log.hh"
#include "src/serve/admission.hh"
#include "src/serve/fleet.hh"
#include "src/serve/handlers.hh"
#include "src/serve/jobs.hh"
#include "src/serve/result_cache.hh"

namespace maestro
{
namespace serve
{

/**
 * Server configuration.
 */
struct ServeOptions
{
    /** Bind address (default loopback; "0.0.0.0" to expose). */
    std::string host = "127.0.0.1";

    /** TCP port; 0 picks an ephemeral port (see port()). */
    std::uint16_t port = 8080;

    /** Analysis worker threads draining the request queue. */
    std::size_t worker_threads = 2;

    /** In-flight request bound; beyond it, POSTs get 503. */
    std::size_t queue_capacity = 64;

    /** Per-request wall-clock deadline (408 on expiry). */
    int deadline_ms = 10000;

    /** Concurrent connection bound (excess connections get 503). */
    std::size_t max_connections = 64;

    /** Keep-alive idle timeout before the server closes. */
    int idle_timeout_ms = 5000;

    /** HTTP parser caps (hostile-input bounds). */
    std::size_t max_header_bytes = 16 * 1024;
    std::size_t max_body_bytes = 1024 * 1024;

    /**
     * Grace window during a drain in which an already-open
     * keep-alive connection may still submit one request (answered
     * with Connection: close); idle connections close when it ends.
     */
    int drain_linger_ms = 150;

    /**
     * Binds with SO_REUSEPORT so several shared-nothing server
     * processes can share one port (the `--workers N` scale-out
     * path; the kernel load-balances accepts across processes).
     */
    bool reuse_port = false;

    /** Resident async job bound (FIFO eviction of completed jobs). */
    std::size_t job_capacity = 256;

    /** Active (queued+running) jobs per client; 0 = unbounded. */
    std::size_t jobs_per_client = 16;

    /**
     * Per-client in-flight SYNC request slots at weight 1 (429 when
     * exhausted); 0 disables per-client sync budgets.
     */
    std::size_t client_share = 0;

    /** Fair-dequeue / budget weights by client key (default 1). */
    std::map<std::string, std::uint32_t> client_weights;

    /** Content-addressed result-cache bounds (0 entries disables). */
    std::size_t result_cache_entries = 1024;
    std::size_t result_cache_bytes = 64 * 1024 * 1024;

    /**
     * Enables the process-wide obs timing mode on start() (latency
     * histograms feeding GET /metrics). On by default — a long-lived
     * daemon wants its metrics populated; histogram recording is a
     * few relaxed atomics per sample and never touches response
     * bodies.
     */
    bool enable_timing = true;

    /**
     * Structured JSONL event log path ("" = in-memory ring only).
     * Every request completion, job transition, and admission
     * rejection appends one line; GET /events tails the ring.
     */
    std::string access_log;

    /** Size-based rotation bound for the access log (0 = never). */
    std::size_t access_log_max_bytes = 64 * 1024 * 1024;

    /** In-memory event ring depth behind GET /events. */
    std::size_t events_ring = 256;

    /**
     * Distinct client ids given their own labelled metric series
     * before folding into `client="other"` (cardinality cap).
     */
    std::size_t metrics_max_clients = 64;

    /**
     * The fleet's shared metrics segment. The `--workers N`
     * supervisor creates one pre-fork and assigns each worker its
     * lane; when unset, start() creates a private 1-lane segment so
     * the single-process server runs the identical counting path.
     */
    std::shared_ptr<obs::SharedMetrics> shared_metrics;

    /** This worker's lane in shared_metrics. */
    std::size_t worker_lane = 0;
};

/** send() the whole buffer (no SIGPIPE); false on a dead peer. */
bool sendAll(int fd, std::string_view data);

/**
 * A TCP socket bound to host:port (SO_REUSEADDR, plus SO_REUSEPORT
 * when `reuse_port`), listening unless `backlog` is 0. `bound_port`
 * receives the resolved port (port 0 picks an ephemeral one).
 *
 * @throws Error when the address cannot be parsed or bound.
 */
int bindTcp(const std::string &host, std::uint16_t port,
            bool reuse_port, int backlog, std::uint16_t &bound_port);

/**
 * GET /events?n=K: the newest K event-ring lines (default 100), or
 * 400 when n is not a count. Shared with the supervisor status port.
 */
JobOutcome eventsTail(const obs::EventLog &log, const QueryParams &params);

/**
 * The daemon. Construct, start(), then run() on the serving thread.
 */
class AnalysisServer
{
  public:
    AnalysisServer(ServeContext context, ServeOptions options);

    /** Stops (if running) and releases the sockets. */
    ~AnalysisServer();

    AnalysisServer(const AnalysisServer &) = delete;
    AnalysisServer &operator=(const AnalysisServer &) = delete;

    /**
     * Binds and listens (does not serve yet).
     *
     * @throws Error when the address cannot be bound.
     */
    void start();

    /** The bound port (after start(); resolves port 0). */
    std::uint16_t port() const { return bound_port_; }

    /**
     * Serves until requestStop(): accepts connections, spawns
     * connection threads, and on stop drains them (in-flight
     * requests finish, bounded by the deadline) before returning.
     * Calls start() when not yet started.
     */
    void run();

    /**
     * Initiates a graceful drain. Async-signal-safe (atomic flag +
     * self-pipe write) — callable from SIGINT/SIGTERM handlers and
     * from other threads.
     */
    void requestStop();

  private:
    friend std::span<const Endpoint, kEndpointCount> endpoints();

    /** One tracked connection thread. */
    struct Connection
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    /** Connection thread body: read -> parse -> respond loop. */
    void serveConnection(int fd, Connection *slot, std::string peer);

    /** Resolves the client key, counts, and routes one request
     *  through the endpoint table (`endpoint` null: 404). */
    Reply dispatch(const HttpRequest &request, const Endpoint *endpoint,
                   std::string_view path, const std::string &peer,
                   const std::string &trace_id);

    /** Runs an Analysis endpoint: result-cache probe, admission
     *  (503/429), the pool, and the deadline (408). */
    Reply dispatchAnalysis(const Endpoint &endpoint, const Call &call);

    // Endpoint handlers: the `handler` column of the table.
    Reply handleAnalyze(const Call &call);
    Reply handleDse(const Call &call);
    Reply handleTune(const Call &call);
    Reply handleSimulate(const Call &call);
    Reply handleCrossval(const Call &call);
    Reply handleJobs(const Call &call);
    Reply handleHealthz(const Call &call);
    Reply handleStats(const Call &call);
    Reply handleMetrics(const Call &call);
    Reply handleEvents(const Call &call);

    /** The analysis inputs of a DSL request body. */
    RequestInputs resolve(const Call &call) const;

    /** What /stats and /metrics read from components, not the lane. */
    fleet::ComponentStats componentStats() const;

    /** Re-reads the admission's active-client count into the lane. */
    void publishActiveClients();

    /**
     * The job executor: evaluates one captured request to a rendered
     * response, consulting and filling the result cache (a pure
     * function of the request, so sync and async bodies are
     * byte-identical by construction).
     */
    JobOutcome evaluateCached(const JobRequest &request);

    /**
     * Evaluates and stores a 200, without a cache probe. For callers
     * that already probed and missed (the sync worker), so one
     * logical miss counts once.
     */
    JobOutcome evaluateAndStore(const Endpoint &endpoint,
                                const JobRequest &request);

    /** Joins finished connection threads; joins all when `all`. */
    void reapConnections(bool all);

    ServeContext context_;
    ServeOptions options_;

    /** Outlives pool_ (declared before it): late pool tasks may
     *  still read the cache and the job store while draining. */
    ResultCache result_cache_;
    std::unique_ptr<JobStore> jobs_;

    /** Also declared before pool_: late pool tasks record into the
     *  fleet lane and the event log while draining. */
    std::unique_ptr<fleet::FleetLane> fleet_;
    std::unique_ptr<obs::EventLog> events_;

    int listen_fd_ = -1;
    int wake_pipe_[2] = {-1, -1};
    std::uint16_t bound_port_ = 0;
    std::atomic<bool> stopping_{false};
    std::chrono::steady_clock::time_point start_time_{};

    std::unique_ptr<ThreadPool> pool_;
    AdmissionController admission_;

    /** Serializes read-component-then-set-lane gauge updates, so the
     *  last write always carries the latest component state. */
    std::mutex gauge_mutex_;

    /** Per-server trace-id sequence (deterministic, no wall clock). */
    std::atomic<std::uint64_t> trace_seq_{0};

    std::mutex connections_mutex_;
    std::vector<std::unique_ptr<Connection>> connections_;
};

} // namespace serve
} // namespace maestro

#endif // MAESTRO_SERVE_SERVER_HH
