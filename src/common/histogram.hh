/**
 * @file
 * Power-of-two microsecond latency histogram.
 *
 * Lifted out of src/serve/admission.hh so the observability layer
 * (src/obs) and the server share one bucketing convention: bucket i
 * counts samples in [2^i, 2^(i+1)) µs (bucket 0 additionally holds
 * sub-µs samples); the last bucket is a catch-all. 28 buckets span
 * ~4.5 minutes.
 *
 * All mutation is relaxed-atomic on address-free atomics, so one
 * histogram may be bumped from connection threads, pool workers, and
 * analysis stages concurrently, and the metrics segment keeps one per
 * worker lane in shared memory. snapshot() reads a consistent-enough
 * view for reporting (counters are monotone; exact cross-field
 * consistency is not required by any consumer), and snapshots merge
 * element-wise so lanes can be aggregated.
 */

#ifndef MAESTRO_COMMON_HISTOGRAM_HH
#define MAESTRO_COMMON_HISTOGRAM_HH

#include <array>
#include <atomic>
#include <cstdint>

namespace maestro
{

/**
 * Lock-free power-of-two latency histogram (microsecond samples).
 */
class LatencyHistogram
{
  public:
    static constexpr std::size_t kBuckets = 28;

    /**
     * Exclusive upper bound of bucket `i` in µs: 2^(i+1). The last
     * bucket is a catch-all (conceptually +Inf); its nominal bound is
     * still returned so cumulative Prometheus rendering can treat
     * every finite bucket uniformly and add the +Inf bucket itself.
     */
    static constexpr std::uint64_t
    upperBoundMicros(std::size_t i)
    {
        return std::uint64_t{1} << (i + 1);
    }

    /** True for the catch-all [2^(kBuckets-1), +Inf) bucket. */
    static constexpr bool
    isOverflowBucket(std::size_t i)
    {
        return i + 1 == kBuckets;
    }

    /** The bucket a sample of `micros` lands in. */
    static constexpr std::size_t
    bucketIndex(std::uint64_t micros)
    {
        std::size_t bucket = 0;
        while ((std::uint64_t{1} << (bucket + 1)) <= micros &&
               bucket + 1 < kBuckets)
            ++bucket;
        return bucket;
    }

    /** Plain-value copy of one histogram's counters. */
    struct Snapshot
    {
        std::array<std::uint64_t, kBuckets> buckets{};
        std::uint64_t count = 0;
        std::uint64_t total_us = 0;
        std::uint64_t max_us = 0;

        /** Element-wise accumulation (max combines by max). */
        Snapshot &
        merge(const Snapshot &other)
        {
            for (std::size_t i = 0; i < kBuckets; ++i)
                buckets[i] += other.buckets[i];
            count += other.count;
            total_us += other.total_us;
            if (other.max_us > max_us)
                max_us = other.max_us;
            return *this;
        }
    };

    /** Records one sample. */
    void
    record(std::uint64_t micros)
    {
        buckets_[bucketIndex(micros)].fetch_add(
            1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        total_us_.fetch_add(micros, std::memory_order_relaxed);
        std::uint64_t max = max_us_.load(std::memory_order_relaxed);
        while (micros > max && !max_us_.compare_exchange_weak(
                                   max, micros,
                                   std::memory_order_relaxed)) {
        }
    }

    std::uint64_t
    bucket(std::size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::uint64_t totalMicros() const
    {
        return total_us_.load(std::memory_order_relaxed);
    }

    std::uint64_t maxMicros() const
    {
        return max_us_.load(std::memory_order_relaxed);
    }

    /**
     * Zeroes every counter (relaxed stores; concurrent record()s may
     * interleave — callers quiesce writers first, e.g. test setup).
     */
    void
    reset()
    {
        for (auto &b : buckets_)
            b.store(0, std::memory_order_relaxed);
        count_.store(0, std::memory_order_relaxed);
        total_us_.store(0, std::memory_order_relaxed);
        max_us_.store(0, std::memory_order_relaxed);
    }

    Snapshot
    snapshot() const
    {
        Snapshot s;
        for (std::size_t i = 0; i < kBuckets; ++i)
            s.buckets[i] = bucket(i);
        s.count = count();
        s.total_us = totalMicros();
        s.max_us = maxMicros();
        return s;
    }

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> total_us_{0};
    std::atomic<std::uint64_t> max_us_{0};
};

} // namespace maestro

#endif // MAESTRO_COMMON_HISTOGRAM_HH
