/**
 * @file
 * Fixed-slot shared-memory metrics segment for multi-process fleets.
 *
 * One `mmap(MAP_SHARED | MAP_ANONYMOUS)` arena, created in the
 * supervisor BEFORE `fork()`, gives every `--workers N` process a
 * wait-free place to count: the segment holds named counter, gauge,
 * and latency-histogram slots, and each slot carries one value per
 * LANE (one lane per worker process). A worker mutates only its own
 * lane — a single relaxed `fetch_add` per event, no cross-process
 * locking on the hot path — and any process can render fleet totals
 * by summing lanes at read time (histogram bucket merges are exact
 * element-wise sums; see LatencyHistogram::bucketIndex).
 *
 * Slot registration is name-keyed and idempotent: the first
 * registration of a name claims the next free slot, later ones (in
 * any process) find it by name. Registration is the rare startup /
 * first-sight path and is serialized by a small CAS spinlock stored
 * IN the segment, so post-fork registrations (e.g. per-client label
 * sets) stay consistent across workers. When a name table is full,
 * registration returns kNoSlot and the caller falls back (the serve
 * layer folds excess clients into a `client="other"` series).
 *
 * Names are capped at kMaxNameBytes-1 bytes; by convention the serve
 * layer stores pre-rendered Prometheus series names
 * (`family{label="x"}`) so the /metrics renderer can group and emit
 * slots without any side tables.
 *
 * The segment is anonymous (inherited only through fork) — nothing
 * touches the filesystem and teardown is a plain munmap when the
 * last process exits.
 */

#ifndef MAESTRO_OBS_SHARED_METRICS_HH
#define MAESTRO_OBS_SHARED_METRICS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>

#include "src/common/histogram.hh"

namespace maestro
{
namespace obs
{

// The whole design rides on 64-bit atomics being address-free: the
// same cache line is mutated through every process's mapping of the
// shared arena.
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shared metrics need lock-free 64-bit atomics");
static_assert(std::atomic<std::int64_t>::is_always_lock_free,
              "shared metrics need lock-free 64-bit atomics");

/**
 * The shared arena. Create once (pre-fork for fleets); processes
 * address slots by index and lanes by worker index.
 */
class SharedMetrics
{
  public:
    /** Capacity of the fixed name tables (per instrument kind). */
    static constexpr std::size_t kMaxCounters = 512;
    static constexpr std::size_t kMaxGauges = 128;
    static constexpr std::size_t kMaxHistograms = 96;

    /** Maximum registered name length, including the NUL. */
    static constexpr std::size_t kMaxNameBytes = 120;

    /** Worker-lane bound (matches the supervisor's worker cap). */
    static constexpr std::size_t kMaxLanes = 64;

    /** Registration failure: table full or name too long. */
    static constexpr std::size_t kNoSlot =
        static_cast<std::size_t>(-1);

    /**
     * Histogram slot layout: kBuckets bucket words, then count,
     * total µs, and max µs.
     */
    static constexpr std::size_t kHistogramWords =
        LatencyHistogram::kBuckets + 3;

    /**
     * Maps a `lanes`-lane anonymous shared arena (clamped to
     * [1, kMaxLanes]).
     *
     * @throws Error when mmap fails.
     */
    static std::shared_ptr<SharedMetrics> create(std::size_t lanes);

    ~SharedMetrics();

    SharedMetrics(const SharedMetrics &) = delete;
    SharedMetrics &operator=(const SharedMetrics &) = delete;

    std::size_t lanes() const { return lanes_; }

    /**
     * Registers (or finds) the counter slot `name`.
     *
     * @return The slot index, or kNoSlot when the table is full or
     *         the name exceeds kMaxNameBytes-1 bytes.
     */
    std::size_t counter(std::string_view name);

    /** Same for gauges. */
    std::size_t gauge(std::string_view name);

    /** Same for latency histograms. */
    std::size_t histogram(std::string_view name);

    // ---- hot-path mutation (wait-free; slot from the calls above,
    //      lane = the calling worker's index) ----

    void
    addCounter(std::size_t slot, std::size_t lane,
               std::uint64_t delta = 1)
    {
        counterCell(slot, lane).fetch_add(delta,
                                          std::memory_order_relaxed);
    }

    void
    addGauge(std::size_t slot, std::size_t lane, std::int64_t delta)
    {
        gaugeCell(slot, lane).fetch_add(delta,
                                        std::memory_order_relaxed);
    }

    void
    setGauge(std::size_t slot, std::size_t lane, std::int64_t value)
    {
        gaugeCell(slot, lane).store(value,
                                    std::memory_order_relaxed);
    }

    /** Records one µs sample (LatencyHistogram bucketing). */
    void recordHistogram(std::size_t slot, std::size_t lane,
                         std::uint64_t micros);

    // ---- read-out ----

    std::uint64_t
    counterLane(std::size_t slot, std::size_t lane) const
    {
        return counterCell(slot, lane)
            .load(std::memory_order_relaxed);
    }

    /** Sum of one counter slot across every lane (the fleet total). */
    std::uint64_t counterTotal(std::size_t slot) const;

    std::int64_t
    gaugeLane(std::size_t slot, std::size_t lane) const
    {
        return gaugeCell(slot, lane).load(std::memory_order_relaxed);
    }

    /** Sum of one gauge slot across every lane. */
    std::int64_t gaugeTotal(std::size_t slot) const;

    /** One lane of one histogram slot as a plain snapshot. */
    LatencyHistogram::Snapshot
    histogramLane(std::size_t slot, std::size_t lane) const;

    /** Element-wise merge of one histogram slot across lanes. */
    LatencyHistogram::Snapshot
    histogramTotal(std::size_t slot) const;

    // ---- enumeration (for renderers) ----

    std::size_t counterCount() const;
    std::size_t gaugeCount() const;
    std::size_t histogramCount() const;

    /** The registered name of a slot (valid for the arena's life). */
    std::string_view counterName(std::size_t slot) const;
    std::string_view gaugeName(std::size_t slot) const;
    std::string_view histogramName(std::size_t slot) const;

    /**
     * Registered counter slots whose name starts with `prefix`
     * (label-cardinality caps count live series this way).
     */
    std::size_t countersWithPrefix(std::string_view prefix) const;

    /** Find-only lookup (kNoSlot when not registered; lock-free). */
    std::size_t findCounter(std::string_view name) const;

  private:
    /** One fixed-width NUL-terminated name cell. */
    struct Name
    {
        char bytes[kMaxNameBytes];
    };

    /** The arena header (registration state + name tables). */
    struct Header
    {
        std::uint32_t magic;
        std::uint32_t lanes;
        std::atomic<std::uint32_t> lock; ///< registration spinlock
        std::atomic<std::uint32_t> counters;
        std::atomic<std::uint32_t> gauges;
        std::atomic<std::uint32_t> histograms;
        Name counter_names[kMaxCounters];
        Name gauge_names[kMaxGauges];
        Name histogram_names[kMaxHistograms];
    };

    SharedMetrics(void *base, std::size_t bytes, std::size_t lanes);

    /** Finds-or-claims a slot in one name table (spinlocked). */
    std::size_t registerName(Name *names,
                             std::atomic<std::uint32_t> &count,
                             std::size_t capacity,
                             std::string_view name);

    /** Lock-free lookup of an already-registered name. */
    static std::size_t findName(const Name *names,
                                const std::atomic<std::uint32_t> &count,
                                std::string_view name);

    std::atomic<std::uint64_t> &
    counterCell(std::size_t slot, std::size_t lane) const
    {
        return counters_[lane * kMaxCounters + slot];
    }

    std::atomic<std::int64_t> &
    gaugeCell(std::size_t slot, std::size_t lane) const
    {
        return gauges_[lane * kMaxGauges + slot];
    }

    std::atomic<std::uint64_t> *
    histogramCells(std::size_t slot, std::size_t lane) const
    {
        return histograms_ +
               (lane * kMaxHistograms + slot) * kHistogramWords;
    }

    void *base_;
    std::size_t bytes_;
    std::size_t lanes_;
    Header *header_;
    std::atomic<std::uint64_t> *counters_;
    std::atomic<std::int64_t> *gauges_;
    std::atomic<std::uint64_t> *histograms_;
};

} // namespace obs
} // namespace maestro

#endif // MAESTRO_OBS_SHARED_METRICS_HH
