/**
 * @file
 * Structured JSONL event log for the serving fleet.
 *
 * One line per operational event — request completions, async-job
 * lifecycle transitions, worker lifecycle — each a self-contained
 * JSON object so an incident can be reconstructed after the fact
 * with nothing but grep/jq. Every request/job line carries the
 * deterministic `X-Trace-Id`, so log lines, `--trace` spans, and
 * /metrics series correlate on one key.
 *
 * Durability: when a path is configured (`--access-log PATH`) lines
 * are appended with a single `write()` on an `O_APPEND` descriptor,
 * so concurrent writers — threads AND `--workers N` processes
 * sharing the file — never interleave partial lines. Size-based
 * rotation renames the file to `PATH.1` and reopens; a writer that
 * lost the rotation race detects the swap by inode and just reopens,
 * so rotation also never truncates mid-line.
 *
 * A bounded in-memory ring keeps the most recent lines regardless of
 * whether a file is configured; `GET /events?n=K` serves its tail.
 *
 * Event schema (field order is fixed; optional fields are omitted,
 * never null):
 *
 *   common   {"type","ts_us","worker",...}     ts_us = wall clock µs
 *   request  + "method","endpoint","status","latency_us","client",
 *              "trace" [,"cache":"hit|miss"] [,"reject":reason]
 *   job      + "event","id","client","endpoint","trace" [,"status"]
 *              [,"queue_wait_us"] [,"run_us"]
 *   worker   + "event","pid" [,"status"]
 */

#ifndef MAESTRO_OBS_EVENT_LOG_HH
#define MAESTRO_OBS_EVENT_LOG_HH

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>

namespace maestro
{
namespace obs
{

/** EventLog configuration. */
struct EventLogOptions
{
    /** JSONL file path; empty keeps the in-memory ring only. */
    std::string path;

    /** Rotate to `path.1` when the file reaches this (0 = never). */
    std::size_t max_bytes = 64 * 1024 * 1024;

    /** In-memory tail entries retained for GET /events. */
    std::size_t ring = 256;

    /** Worker index stamped on every line (-1 = supervisor). */
    int worker = 0;
};

/** Counters surfaced on /stats. */
struct EventLogStats
{
    std::uint64_t lines = 0;     ///< events emitted
    std::uint64_t bytes = 0;     ///< bytes written to the file
    std::uint64_t rotations = 0; ///< file rotations performed
    std::uint64_t dropped = 0;   ///< ring entries overwritten
};

/** One completed HTTP request. */
struct RequestEvent
{
    std::string_view method;
    std::string_view endpoint;
    int status = 0;
    std::uint64_t latency_us = 0;
    std::string_view client;
    std::string_view trace;
    const char *cache = nullptr;  ///< "hit"/"miss" (analysis only)
    const char *reject = nullptr; ///< admission/quota reject reason
};

/** One async-job lifecycle transition. */
struct JobEvent
{
    std::string_view event; ///< submitted/started/completed/...
    std::string_view id;
    std::string_view client;
    std::string_view endpoint;
    std::string_view trace;
    int status = 0; ///< terminal response status (0 = n/a)
    bool has_queue_wait = false;
    std::uint64_t queue_wait_us = 0;
    bool has_run = false;
    std::uint64_t run_us = 0;
};

/**
 * The log. Thread-safe; one instance per process (workers sharing a
 * path coordinate through O_APPEND, not through each other).
 */
class EventLog
{
  public:
    explicit EventLog(EventLogOptions options);
    ~EventLog();

    EventLog(const EventLog &) = delete;
    EventLog &operator=(const EventLog &) = delete;

    void logRequest(const RequestEvent &event);
    void logJob(const JobEvent &event);

    /** Worker lifecycle ("started"/"exited"); status for exits. */
    void logWorker(std::string_view event, int pid, int status = -1);

    /**
     * {"count":K,"events":[...]} — the newest `n` ring entries in
     * oldest-first order (each entry is the logged object verbatim).
     */
    std::string tailJson(std::size_t n) const;

    EventLogStats stats() const;

  private:
    /** Appends the finished line to the file + ring. */
    void emit(std::string line);

    /** Rotates `path` -> `path.1` when over max_bytes (mutex held). */
    void maybeRotateLocked();

    EventLogOptions options_;

    mutable std::mutex mutex_;
    int fd_ = -1;
    std::deque<std::string> ring_;
    EventLogStats stats_;
};

} // namespace obs
} // namespace maestro

#endif // MAESTRO_OBS_EVENT_LOG_HH
