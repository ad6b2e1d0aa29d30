/**
 * @file
 * The deterministic shard-index merge discipline shared by the DSE
 * fast sweep and the mapper's candidate search (bind, key, prune and
 * score per candidate; when the candidates span several shards, the
 * mapper's merge settles duplicate keys before any is scored).
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
 * One default-constructed `Slot` per index of [0, count), filled
 * across up to `num_threads` threads, returned for the caller's own
 * serial merge in ascending index order.
 *
 * The shards are ThreadPool::runChunked's chunks, so
 * ThreadPool::chunkCount says how many there are.
 *
 * `fill_range(begin, end, slots)` runs concurrently and must only
 * write slots[begin..end) (shard-local state like a per-shard span or
 * key set is fine). Exceptions thrown by `fill_range`
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

} // namespace dse
} // namespace maestro

#endif // MAESTRO_DSE_SHARD_HH
