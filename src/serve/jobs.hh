/**
 * @file
 * Asynchronous job subsystem of the analysis server.
 *
 * A job wraps one analyze/dse/tune/simulate/crossval request so long
 * evaluations do not hold a connection for their whole life:
 *
 *   POST   /jobs/<endpoint>  submit -> 202 {"id","state":"queued"}
 *   GET    /jobs/<id>        queued/running -> state body +
 *                            Retry-After; done/failed -> the stored
 *                            response VERBATIM (status and bytes
 *                            exactly as the sync endpoint produced)
 *   DELETE /jobs/<id>        queued -> cancelled; running -> 409;
 *                            terminal -> removed
 *
 * Determinism: job ids are content-addressed ("j" + 16 hex digits of
 * the canonical request key's FNV-1a hash), so resubmitting an
 * identical request is idempotent — it attaches to the resident job
 * instead of re-running. Terminal bodies are the handlers' rendered
 * bytes, which are pure functions of the request, so they are
 * byte-identical at any worker-thread count. Response bodies carry
 * no wall-clock fields.
 *
 * Bounded: a capacity bound on resident jobs with FIFO eviction of
 * completed jobs in SUBMISSION order (completion order is racy
 * across thread counts; submission order is what both sides of a
 * determinism test observe), and a per-client active (queued +
 * running) bound answered with 429.
 *
 * Fairness: queued work drains through a deficit-style weighted
 * round-robin over client keys (sorted, cyclic cursor): each visit
 * grants a client `weight` dequeues of credit before the cursor
 * moves on, so one chatty tenant cannot starve the rest no matter
 * how deep its backlog is.
 */

#ifndef MAESTRO_SERVE_JOBS_HH
#define MAESTRO_SERVE_JOBS_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/thread_pool.hh"
#include "src/obs/event_log.hh"
#include "src/serve/http.hh"

namespace maestro
{
namespace serve
{

/** One captured request, replayed by the executor off-connection. */
struct JobRequest
{
    std::string path;      ///< sync endpoint path, e.g. "/analyze"
    QueryParams params;    ///< decoded query parameters
    std::string body;      ///< DSL request body
    std::string canonical; ///< ResultCache::canonicalKey of the above
    std::string client;    ///< submitter key (NOT part of canonical;
                           ///< telemetry attribution only)
};

/** A rendered response: status code + body bytes. */
using JobOutcome = std::pair<int, std::string>;

/** What the store hands back to the HTTP layer. */
struct JobReply
{
    int status = 200;
    std::string body;
    bool retry_after = false; ///< add a Retry-After header
    std::string trace_id{};   ///< submitter's trace id ("" = none);
                              ///< surfaced as X-Job-Trace-Id, never
                              ///< in the body (byte-identity)
};

/**
 * Bounded deterministic in-memory job store + fair dispatcher.
 */
class JobStore
{
  public:
    /** Evaluates one request to a rendered response (pure). */
    using Executor = std::function<JobOutcome(const JobRequest &)>;

    /**
     * Lifecycle observer. `event` is one of: submitted, resubmitted,
     * started, completed, failed, cancelled, evicted,
     * rejected_capacity, rejected_client; the endpoint is the name
     * without its slash, and the views borrow from the store. Called
     * with the store mutex HELD — the callback must not re-enter the
     * store (metrics bumps and log appends only).
     */
    using EventObserver = std::function<void(const obs::JobEvent &)>;

    /**
     * Queue gauge observer: (queued, running, resident, oldest
     * queued submit tick in µs — 0 when nothing is queued). Called
     * with the store mutex held, same no-re-entry rule.
     */
    using GaugeObserver =
        std::function<void(std::size_t, std::size_t, std::size_t,
                           std::uint64_t)>;

    /**
     * @param pool Shared worker pool executing jobs.
     * @param executor Request evaluator (must not touch the store).
     * @param capacity Resident job bound (>= 1).
     * @param per_client_active Active jobs per client (0 = unbounded).
     * @param max_running Concurrently executing job bound (>= 1).
     * @param weights Fair-dequeue weights by client key (default 1).
     */
    JobStore(ThreadPool *pool, Executor executor, std::size_t capacity,
             std::size_t per_client_active, std::size_t max_running,
             std::map<std::string, std::uint32_t> weights = {});

    ~JobStore() { shutdown(); }

    JobStore(const JobStore &) = delete;
    JobStore &operator=(const JobStore &) = delete;

    /** Installs the lifecycle + gauge observers (before serving). */
    void setObservers(EventObserver events, GaugeObserver gauges);

    /**
     * Submits (or re-attaches to) job `id` for `client`.
     *
     * New: 202 + queued body. Duplicate: 200 + current state body
     * (the stored canonical key must match — a hash collision is
     * answered 500 rather than silently serving the wrong result).
     * Bounds: 429 when the client's active bound is hit; 503 when
     * the store is full of active jobs (nothing evictable).
     *
     * `trace_id` is the submitter's X-Trace-Id: the FIRST submit
     * pins it for the job's life, and every later reply (idempotent
     * resubmits, polls, cancels) echoes it via JobReply::trace_id.
     */
    JobReply submit(const std::string &client, const std::string &id,
                    JobRequest request,
                    const std::string &trace_id = "");

    /** Job status; terminal Done/Failed replies are verbatim. */
    JobReply poll(const std::string &id) const;

    /** DELETE semantics (cancel queued / remove terminal / 409). */
    JobReply cancel(const std::string &id);

    /** GET /jobs: resident jobs in submission order. */
    std::string listJson() const;

    /** The resident job bound. */
    std::size_t capacity() const { return capacity_; }

    /**
     * Drain for shutdown: rejects new submits, cancels all queued
     * jobs, and blocks until running jobs finish (their results are
     * kept, so a client can still poll during connection linger).
     */
    void shutdown();

  private:
    enum class State : std::uint8_t
    {
        Queued,
        Running,
        Done,      ///< terminal; holds the 200 response
        Failed,    ///< terminal; holds the error response
        Cancelled, ///< terminal; cancelled before running
    };

    struct Job
    {
        std::string id;
        std::string client;
        std::string trace_id; ///< first submitter's X-Trace-Id
        JobRequest request;
        State state = State::Queued;
        std::uint64_t seq = 0; ///< submission sequence (eviction key)
        int status = 0;        ///< terminal response status
        std::string body;      ///< terminal response bytes (verbatim)
        std::uint64_t submitted_tick = 0; ///< steady µs at submit
        std::uint64_t started_tick = 0;   ///< steady µs at dispatch
    };

    /** Per-client FIFO + deficit credit for the fair dequeue. */
    struct ClientQueue
    {
        std::deque<std::string> ids;
        std::uint32_t weight = 1;
        std::uint32_t credit = 0;
    };

    static const char *stateName(State s);

    /** {"id","state"} body (mutex_ held). */
    static std::string statusBody(const std::string &id,
                                  const char *state);

    bool isTerminal(State s) const
    {
        return s == State::Done || s == State::Failed ||
               s == State::Cancelled;
    }

    /** Weighted round-robin pop; "" when nothing is queued. */
    std::string nextJobLocked();

    /**
     * Dispatches queued jobs while execution slots are free. Takes
     * the held lock: jobs flip to Running under it, but pool
     * submission happens UNLOCKED — with zero pool workers submit()
     * runs the task inline, which would deadlock on mutex_.
     */
    void pumpLocked(std::unique_lock<std::mutex> &lock);

    /** Marks a job terminal and updates the indexes (mutex_ held). */
    void finishLocked(Job &job, State state, int status,
                      std::string body);

    /** Pool task: runs one job through the executor. */
    void runJob(const std::string &id);

    /** Reports one transition of `job` (mutex_ held). */
    void emitEventLocked(const Job &job, std::string_view event,
                         int status = 0, bool has_queue_wait = false,
                         std::uint64_t queue_wait_us = 0,
                         bool has_run = false,
                         std::uint64_t run_us = 0) const;

    /** Pushes queued/running/resident/oldest-age (mutex_ held). */
    void notifyGaugesLocked() const;

    ThreadPool *pool_;
    Executor executor_;
    const std::size_t capacity_;
    const std::size_t per_client_active_;
    const std::size_t max_running_;
    const std::map<std::string, std::uint32_t> weights_;

    EventObserver event_observer_;
    GaugeObserver gauge_observer_;

    mutable std::mutex mutex_;
    std::condition_variable idle_cv_; ///< running_ drained to zero
    std::map<std::string, Job> jobs_; ///< id -> job
    std::map<std::uint64_t, std::string> terminal_by_seq_;
    /** Queued jobs' submit ticks by seq; begin() is the oldest. */
    std::map<std::uint64_t, std::uint64_t> queued_by_seq_;
    std::map<std::string, ClientQueue> queues_;
    std::map<std::string, std::size_t> active_; ///< client -> count
    std::string cursor_; ///< next client the fair dequeue considers
    std::uint64_t next_seq_ = 0;
    std::size_t running_ = 0;
    bool stopping_ = false;
};

} // namespace serve
} // namespace maestro

#endif // MAESTRO_SERVE_JOBS_HH
