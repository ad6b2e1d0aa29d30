/**
 * @file
 * The deterministic shard-index merge discipline shared by the DSE
 * fast sweep and the mapper's candidate evaluation.
 *
 * Pattern: split [0, count) into contiguous shards across the thread
 * pool, let each worker fill preallocated per-index slots for its
 * range, then merge the slots serially in index order. Because the
 * parallel phase writes only slots[i] and the serial merge visits
 * slots in ascending index order, the merged result is byte-identical
 * for any thread count — "first encountered wins" tie breaks resolve
 * by index, never by thread timing.
 */

#ifndef MAESTRO_DSE_SHARD_HH
#define MAESTRO_DSE_SHARD_HH

#include <cstddef>
#include <vector>

#include "src/common/thread_pool.hh"

namespace maestro
{
namespace dse
{

/**
 * Fill phase alone: one default-constructed `Slot` per index of
 * [0, count), filled across up to `num_threads` threads, returned for
 * the caller's own serial merge (useful when the merge needs random
 * access to every slot afterwards, like the DSE frontier pass).
 *
 * `fill_range(begin, end, slots)` runs concurrently and must only
 * write slots[begin..end) (shard-local instrumentation like a
 * per-shard span is fine). Exceptions thrown by `fill_range`
 * propagate — record per-slot errors instead to keep error reporting
 * deterministic.
 */
template <typename Slot, typename FillRange>
std::vector<Slot>
shardedFill(std::size_t num_threads, std::size_t count,
            const FillRange &fill_range)
{
    std::vector<Slot> slots(count);
    ThreadPool::runChunked(num_threads, count,
                           [&](std::size_t begin, std::size_t end) {
                               fill_range(begin, end, slots);
                           });
    return slots;
}

/**
 * Range form: shardedFill, then `merge(slot, index)` serially in
 * ascending index order on the calling thread. Every cross-slot
 * decision belongs in `merge`.
 */
template <typename Slot, typename FillRange, typename Merge>
void
shardedRanges(std::size_t num_threads, std::size_t count,
              const FillRange &fill_range, const Merge &merge)
{
    const std::vector<Slot> slots =
        shardedFill<Slot>(num_threads, count, fill_range);
    for (std::size_t i = 0; i < count; ++i)
        merge(slots[i], i);
}

} // namespace dse
} // namespace maestro

#endif // MAESTRO_DSE_SHARD_HH
