/**
 * @file
 * Low-overhead instrumentation core: a process-wide mode word, scoped
 * spans, and an opt-in tracer writing Chrome trace-event JSON.
 *
 * Design goals, in order:
 *
 *  1. Disabled cost is ONE relaxed atomic load per instrumented site.
 *     A ScopedSpan constructor loads the mode word; when no bit is
 *     set it reads no clock, takes no lock, and its destructor is a
 *     branch on a bool. Hot loops (per-grid-point DSE work) are NOT
 *     instrumented — sites sit at stage/shard/request granularity.
 *
 *  2. Determinism of program *outputs*. Spans and timing never feed
 *     back into analysis results, response bodies, or exit codes;
 *     wall-clock data leaves the process only through the trace file
 *     and the metrics surfaces.
 *
 *  3. Thread safety under TSan. Span records go to one ring behind
 *     one mutex, taken only while tracing; export takes the same
 *     mutex.
 *
 * Two independent mode bits:
 *  - kTiming: sites record durations into their series in the
 *    calling thread's metrics lane (see shared_metrics.hh: the
 *    server's /metrics latency families, or the process segment the
 *    CLI's --profile reads);
 *  - kSpans: sites additionally append events to the tracer's ring
 *    for Chrome trace export (--trace).
 *
 * Span names and categories must be string literals (or otherwise
 * outlive the tracer): events store the pointers, not copies.
 */

#ifndef MAESTRO_OBS_OBS_HH
#define MAESTRO_OBS_OBS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace maestro
{

class JsonWriter;

namespace obs
{

/** Mode bits of the process-wide instrumentation word. */
enum Mode : std::uint32_t
{
    kTiming = 1u << 0, ///< record durations into site histograms
    kSpans = 1u << 1,  ///< record events into the tracer's ring
};

/** The process-wide mode word (see enabled()/setMode()). */
std::atomic<std::uint32_t> &modeWord();

/** Current mode bits (one relaxed load — the per-site cost). */
inline std::uint32_t
mode()
{
    return modeWord().load(std::memory_order_relaxed);
}

/** True when any instrumentation bit is set. */
inline bool
enabled()
{
    return mode() != 0;
}

/** Sets mode bits (OR into the word). */
void enableMode(std::uint32_t bits);

/** Clears mode bits. */
void disableMode(std::uint32_t bits);

/**
 * One instrumented code location: a span name/category for the
 * tracer plus the latency series its durations record into. Sites
 * are constant data.
 */
struct Site
{
    const char *name;     ///< span name, e.g. "pipeline.tensor"
    const char *category; ///< trace category, e.g. "pipeline"
    /** Histogram series (µs), e.g.
     *  `maestro_pipeline_stage_miss_us{stage="tensor"}`; null for a
     *  span with no histogram. */
    const char *series;
};

/** One recorded trace event (Chrome "complete" event, ph = "X"). */
struct TraceEvent
{
    const char *name = nullptr;
    const char *category = nullptr;
    std::uint64_t ts_us = 0;  ///< start, µs since trace start
    std::uint64_t dur_us = 0; ///< duration, µs
    std::uint32_t tid = 0;    ///< tracer-assigned thread id
    /** Up to two numeric args (nullptr name = unused slot). */
    const char *arg_name[2] = {nullptr, nullptr};
    std::uint64_t arg_value[2] = {0, 0};
};

/**
 * The process-wide tracer: one ring of TraceEvents shared by every
 * recording thread.
 *
 * start() begins a new trace generation (previous events are
 * discarded), stop() freezes it; writeJson() renders whatever the
 * current generation captured as a Chrome trace-event document
 * ({"traceEvents": [...]}), Perfetto/chrome://tracing loadable.
 */
class Tracer
{
  public:
    /** Default ring capacity (events). */
    static constexpr std::size_t kDefaultCapacity = 1 << 16;

    static Tracer &instance();

    /**
     * Starts (or restarts) tracing and sets kSpans | kTiming. The
     * ring grows to `ring_capacity` events, then overwrites its
     * oldest. Events from a previous generation are dropped.
     */
    void start(std::size_t ring_capacity = kDefaultCapacity);

    /** Clears kSpans (captured events stay exportable). */
    void stop();

    /** True between start() and stop(). */
    bool active() const;

    /**
     * Appends one event to the ring, giving the calling thread its
     * tid on its first record in the generation. No-op when
     * inactive.
     */
    void record(const TraceEvent &event);

    /**
     * Renders the captured trace: {"traceEvents": [...],
     * "maestro": {"dropped_events": N, "threads": M}}. Events are
     * sorted by (ts, tid), then record order, so equal-input traces
     * differ only in their clock values.
     */
    void writeJson(JsonWriter &w) const;

    /** writeJson() into a string (the --trace file body). */
    std::string json() const;

    /** Events currently captured. */
    std::size_t eventCount() const;

    /** Events overwritten by ring wrap-around this generation. */
    std::uint64_t droppedCount() const;

    /** µs elapsed since the current generation's start(). */
    std::uint64_t nowMicros() const;

  private:
    Tracer() = default;

    /** mutex_ guards every member up to active_. */
    mutable std::mutex mutex_;
    /** The ring: appended until it holds capacity_ events, then
     *  overwritten from head_, its oldest event. */
    std::vector<TraceEvent> ring_;
    std::size_t capacity_ = kDefaultCapacity;
    std::size_t head_ = 0;
    std::uint64_t recorded_ = 0;   ///< records this generation
    std::uint32_t threads_ = 0;    ///< tids handed out this generation
    std::uint64_t generation_ = 0; ///< start() calls so far
    std::atomic<bool> active_{false};
    /** start() instant, ns since the steady-clock epoch (atomic so
     *  recording threads can compute relative timestamps without a
     *  lock). */
    std::atomic<std::int64_t> start_ns_{0};
};

/**
 * RAII span: times its scope and, per the mode word, records the
 * duration into the site's series (kTiming) and/or a trace event
 * (kSpans). The mode word is sampled ONCE at construction.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const Site &site)
        : site_(site), mode_(mode())
    {
        if (mode_ != 0)
            t0_ = std::chrono::steady_clock::now();
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attaches a numeric arg to the trace event (2 slots). */
    void
    arg(const char *name, std::uint64_t value)
    {
        if (mode_ == 0)
            return;
        for (auto i = 0; i < 2; ++i) {
            if (arg_name_[i] == nullptr || arg_name_[i] == name) {
                arg_name_[i] = name;
                arg_value_[i] = value;
                return;
            }
        }
    }

    ~ScopedSpan()
    {
        if (mode_ != 0)
            finish();
    }

  private:
    void finish();

    const Site &site_;
    std::uint32_t mode_;
    std::chrono::steady_clock::time_point t0_{};
    const char *arg_name_[2] = {nullptr, nullptr};
    std::uint64_t arg_value_[2] = {0, 0};
};

} // namespace obs
} // namespace maestro

#endif // MAESTRO_OBS_OBS_HH
