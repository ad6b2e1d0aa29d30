/**
 * @file
 * Process-wide metrics registry and Prometheus text exposition.
 *
 * The registry holds named instrument families (counter and
 * power-of-two latency histogram), each with zero or more label sets.
 * Lookup takes a mutex; hot paths call it once (function-local
 * static) and keep the returned reference — references are stable
 * for the process lifetime (instruments live in node-based storage
 * and are never erased). Mutation is relaxed-atomic, safe from any
 * thread.
 *
 * Registry::render() produces the text exposition format (v0.0.4):
 * families sorted by name, label sets sorted by their rendered label
 * string, histograms as cumulative `_bucket{le="..."}` series plus
 * `_sum`/`_count` — so equal counter states always render to equal
 * bytes. The same renderer backs the daemon's GET /metrics, which
 * also folds in per-server state (request counters, admission,
 * pipeline cache stats) as one document.
 */

#ifndef MAESTRO_OBS_METRICS_HH
#define MAESTRO_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/common/histogram.hh"

namespace maestro
{
namespace obs
{

/** Monotone counter (relaxed increments). */
class Counter
{
  public:
    void
    add(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Sorted label set, e.g. {{"stage", "tensor"}}. */
using Labels = std::map<std::string, std::string>;

/**
 * The process-wide instrument registry.
 */
class Registry
{
  public:
    /** The one registry instrumented code uses. */
    static Registry &global();

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /**
     * Returns the counter `name`+`labels`, creating it on first use.
     * `help` is recorded on creation (first caller wins). The
     * reference is stable for the registry's lifetime.
     */
    Counter &counter(std::string_view name, std::string_view help,
                     const Labels &labels = {});

    /** Same for power-of-two latency histograms (µs samples). */
    LatencyHistogram &histogram(std::string_view name,
                                std::string_view help,
                                const Labels &labels = {});

    /**
     * Prometheus text exposition of every registered instrument
     * (appended to `out`). Deterministic for equal instrument state.
     */
    void render(std::string &out) const;

  private:
    enum class Kind : std::uint8_t
    {
        Counter,
        Histogram,
    };

    /** One instrument family: shared name/help, per-labelset values. */
    struct Family
    {
        Kind kind = Kind::Counter;
        std::string name;
        std::string help;
        /** Keyed by rendered label string (see labelString). */
        std::map<std::string, std::unique_ptr<Counter>> counters;
        std::map<std::string, std::unique_ptr<LatencyHistogram>>
            histograms;
    };

    Family &family(Kind kind, std::string_view name,
                   std::string_view help);

    mutable std::mutex mutex_;
    std::map<std::string, Family, std::less<>> families_;
};

/**
 * Renders `{a="x",b="y"}` (empty labels -> empty string) with
 * Prometheus label-value escaping; exposed for the /metrics handler
 * which renders non-registry state through the same convention.
 */
std::string labelString(const Labels &labels);

/**
 * Appends one `name{labels} value` sample line. `extra` is a
 * pre-rendered label string ("" or "{...}").
 */
void appendSample(std::string &out, std::string_view name,
                  std::string_view extra, double value);
void appendSample(std::string &out, std::string_view name,
                  std::string_view extra, std::uint64_t value);

/** Appends `# HELP` / `# TYPE` header lines for one family. */
void appendFamilyHeader(std::string &out, std::string_view name,
                        std::string_view help, std::string_view type);

/** `labels` ("" or "{...}") with a pre-rendered `k="v"` run added. */
std::string withLabels(std::string_view labels, std::string_view extra);

/**
 * Appends a full histogram exposition of one series (cumulative
 * `_bucket` series with explicit `le` bounds from
 * LatencyHistogram::upperBoundMicros, then `+Inf`, `_sum`, `_count`).
 * `labels` is the series' pre-rendered label string; `trailing` an
 * optional pre-rendered `k="v"` run placed after `le` and on
 * `_sum`/`_count` (a fleet's worker label).
 */
void appendHistogram(std::string &out, std::string_view name,
                     std::string_view labels, std::string_view trailing,
                     const LatencyHistogram::Snapshot &snapshot);

} // namespace obs
} // namespace maestro

#endif // MAESTRO_OBS_METRICS_HH
