#include "src/obs/shared_metrics.hh"

#include <cerrno>
#include <cstring>
#include <new>
#include <thread>

#include <sys/mman.h>

#include "src/common/error.hh"

namespace maestro
{
namespace obs
{

namespace
{

constexpr std::uint32_t kMagic = 0x4d41454dU; // "MAEM"

/** Rounds `n` up to a 64-byte boundary (cache-line alignment). */
constexpr std::size_t
alignUp(std::size_t n)
{
    return (n + 63) & ~std::size_t{63};
}

} // namespace

std::shared_ptr<SharedMetrics>
SharedMetrics::create(std::size_t lanes)
{
    if (lanes < 1)
        lanes = 1;
    if (lanes > kMaxLanes)
        lanes = kMaxLanes;

    const std::size_t header_bytes = alignUp(sizeof(Header));
    const std::size_t counter_bytes = alignUp(
        lanes * kMaxCounters * sizeof(std::atomic<std::uint64_t>));
    const std::size_t gauge_bytes = alignUp(
        lanes * kMaxGauges * sizeof(std::atomic<std::int64_t>));
    const std::size_t histogram_bytes =
        alignUp(lanes * kMaxHistograms * sizeof(LatencyHistogram));
    const std::size_t total = header_bytes + counter_bytes +
                              gauge_bytes + histogram_bytes;

    void *base = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    fatalIf(base == MAP_FAILED, "mmap shared metrics segment: ",
            std::strerror(errno));
    return std::shared_ptr<SharedMetrics>(
        new SharedMetrics(base, total, lanes));
}

SharedMetrics::SharedMetrics(void *base, std::size_t bytes,
                             std::size_t lanes)
    : base_(base), bytes_(bytes), lanes_(lanes)
{
    // The mapping is zero-filled; placement-new gives the atomics a
    // formal lifetime without touching the zero representation.
    char *cursor = static_cast<char *>(base_);
    header_ = new (cursor) Header();
    header_->magic = kMagic;
    header_->lanes = static_cast<std::uint32_t>(lanes_);
    cursor += alignUp(sizeof(Header));

    counters_ =
        reinterpret_cast<std::atomic<std::uint64_t> *>(cursor);
    for (std::size_t i = 0; i < lanes_ * kMaxCounters; ++i)
        new (counters_ + i) std::atomic<std::uint64_t>(0);
    cursor += alignUp(lanes_ * kMaxCounters *
                      sizeof(std::atomic<std::uint64_t>));

    gauges_ = reinterpret_cast<std::atomic<std::int64_t> *>(cursor);
    for (std::size_t i = 0; i < lanes_ * kMaxGauges; ++i)
        new (gauges_ + i) std::atomic<std::int64_t>(0);
    cursor += alignUp(lanes_ * kMaxGauges *
                      sizeof(std::atomic<std::int64_t>));

    histograms_ = reinterpret_cast<LatencyHistogram *>(cursor);
    for (std::size_t i = 0; i < lanes_ * kMaxHistograms; ++i)
        new (histograms_ + i) LatencyHistogram();
}

SharedMetrics::~SharedMetrics()
{
    // Each process unmaps its own view; the kernel frees the pages
    // when the last mapping goes away.
    ::munmap(base_, bytes_);
}

std::size_t
SharedMetrics::findName(const Name *names,
                        const std::atomic<std::uint32_t> &count,
                        std::string_view name)
{
    // The count is published with release after the name bytes are
    // written, so every slot below an acquired count holds a
    // complete NUL-terminated name, zero-filled past its end.
    if (name.empty() || name.size() >= kMaxNameBytes)
        return kNoSlot;
    const std::uint32_t n = count.load(std::memory_order_acquire);
    for (std::uint32_t i = 0; i < n; ++i) {
        // Two byte loads reject a name of another length.
        const char *bytes = names[i].bytes;
        if (bytes[name.size()] == '\0' &&
            bytes[name.size() - 1] != '\0' &&
            std::memcmp(bytes, name.data(), name.size()) == 0)
            return i;
    }
    return kNoSlot;
}

std::size_t
SharedMetrics::registerName(Name *names,
                            std::atomic<std::uint32_t> &count,
                            std::size_t capacity,
                            std::string_view name)
{
    if (name.empty() || name.size() >= kMaxNameBytes ||
        name.find('\0') != std::string_view::npos)
        return kNoSlot;

    // Fast path: already registered (by any process).
    const std::size_t found = findName(names, count, name);
    if (found != kNoSlot)
        return found;

    // Slow path: claim a slot under the in-segment spinlock.
    // Registration happens at startup or on first sight of a label
    // set — never per-event — so a spinlock is plenty.
    std::uint32_t expected = 0;
    while (!header_->lock.compare_exchange_weak(
        expected, 1, std::memory_order_acquire,
        std::memory_order_relaxed)) {
        expected = 0;
        std::this_thread::yield();
    }

    std::size_t slot = findName(names, count, name);
    if (slot == kNoSlot) {
        const std::uint32_t n =
            count.load(std::memory_order_relaxed);
        if (n < capacity) {
            std::memcpy(names[n].bytes, name.data(), name.size());
            names[n].bytes[name.size()] = '\0';
            count.store(n + 1, std::memory_order_release);
            slot = n;
        }
    }

    header_->lock.store(0, std::memory_order_release);
    return slot;
}

std::size_t
SharedMetrics::counter(std::string_view name)
{
    return registerName(header_->counter_names, header_->counters,
                        kMaxCounters, name);
}

std::size_t
SharedMetrics::gauge(std::string_view name)
{
    return registerName(header_->gauge_names, header_->gauges,
                        kMaxGauges, name);
}

std::size_t
SharedMetrics::histogram(std::string_view name)
{
    return registerName(header_->histogram_names,
                        header_->histograms, kMaxHistograms, name);
}

std::uint64_t
SharedMetrics::counterTotal(std::size_t slot) const
{
    std::uint64_t total = 0;
    for (std::size_t lane = 0; lane < lanes_; ++lane)
        total += counterLane(slot, lane);
    return total;
}

std::int64_t
SharedMetrics::gaugeTotal(std::size_t slot) const
{
    std::int64_t total = 0;
    for (std::size_t lane = 0; lane < lanes_; ++lane)
        total += gaugeLane(slot, lane);
    return total;
}

LatencyHistogram::Snapshot
SharedMetrics::histogramTotal(std::size_t slot) const
{
    LatencyHistogram::Snapshot total;
    for (std::size_t lane = 0; lane < lanes_; ++lane)
        total.merge(histogramLane(slot, lane));
    return total;
}

std::size_t
SharedMetrics::counterCount() const
{
    return header_->counters.load(std::memory_order_acquire);
}

std::size_t
SharedMetrics::gaugeCount() const
{
    return header_->gauges.load(std::memory_order_acquire);
}

std::size_t
SharedMetrics::histogramCount() const
{
    return header_->histograms.load(std::memory_order_acquire);
}

std::string_view
SharedMetrics::counterName(std::size_t slot) const
{
    return header_->counter_names[slot].bytes;
}

std::string_view
SharedMetrics::gaugeName(std::size_t slot) const
{
    return header_->gauge_names[slot].bytes;
}

std::string_view
SharedMetrics::histogramName(std::size_t slot) const
{
    return header_->histogram_names[slot].bytes;
}

std::size_t
SharedMetrics::findCounter(std::string_view name) const
{
    return findName(header_->counter_names, header_->counters, name);
}

std::size_t
SharedMetrics::countersWithPrefix(std::string_view prefix) const
{
    const std::size_t n = counterCount();
    std::size_t matches = 0;
    for (std::size_t i = 0; i < n; ++i)
        if (counterName(i).substr(0, prefix.size()) == prefix)
            ++matches;
    return matches;
}

namespace
{

thread_local Lane tl_lane;

/** The lane a record on this thread lands in. */
Lane
recordingLane()
{
    return tl_lane.segment != nullptr ? tl_lane
                                      : Lane{&processMetrics(), 0};
}

} // namespace

Lane
boundLane()
{
    return tl_lane;
}

LaneBinding::LaneBinding(Lane lane) : previous_(tl_lane)
{
    tl_lane = lane;
}

LaneBinding::~LaneBinding()
{
    tl_lane = previous_;
}

SharedMetrics &
processMetrics()
{
    static const std::shared_ptr<SharedMetrics> segment =
        SharedMetrics::create(1);
    return *segment;
}

void
recordHistogram(std::string_view series, std::uint64_t micros)
{
    const Lane lane = recordingLane();
    const std::size_t slot = lane.segment->histogram(series);
    if (slot != SharedMetrics::kNoSlot)
        lane.segment->recordHistogram(slot, lane.index, micros);
}

void
addCounter(std::string_view series, std::uint64_t delta)
{
    const Lane lane = recordingLane();
    const std::size_t slot = lane.segment->counter(series);
    if (slot != SharedMetrics::kNoSlot)
        lane.segment->addCounter(slot, lane.index, delta);
}

} // namespace obs
} // namespace maestro
