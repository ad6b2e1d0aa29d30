/**
 * @file
 * Content-addressed full-result cache for the analysis server.
 *
 * Layered ABOVE the pipeline's stage caches: the key is the
 * canonicalized request (endpoint + sorted query parameters + body)
 * and the value is the fully rendered 200-response body, so a hit
 * skips parsing, analysis, and JSON rendering entirely and serves
 * the exact bytes a miss would have produced (the byte-identity
 * invariant makes full-result caching safe by construction — a
 * response is a pure function of the canonical key).
 *
 * Shared by the synchronous endpoints and the async job executor:
 * a job whose result is resident completes without touching the
 * pipeline, and a sync request warms the cache for later jobs (and
 * vice versa). Bounded by entry count AND total body bytes with LRU
 * eviction; only 200 responses are cached (errors are cheap to
 * recompute and must not shadow a later fix of the request).
 *
 * Thread-safe; values are shared_ptr<const string> so a hit never
 * copies the body and eviction never invalidates an in-flight send.
 */

#ifndef MAESTRO_SERVE_RESULT_CACHE_HH
#define MAESTRO_SERVE_RESULT_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/serve/http.hh"

namespace maestro
{
namespace serve
{

/**
 * Residency the cache alone knows. Hits, misses, evictions and
 * served bytes are counted by the server's fleet lane at the call
 * sites that see them.
 */
struct ResultCacheStats
{
    std::uint64_t inserted = 0;
    std::size_t entries = 0; ///< resident entries right now
    std::size_t bytes = 0;   ///< resident body bytes right now
};

/**
 * LRU map: canonical request key -> rendered 200-response bytes.
 */
class ResultCache
{
  public:
    /**
     * @param max_entries Entry bound (0 disables the cache).
     * @param max_bytes Total resident body-byte bound.
     */
    ResultCache(std::size_t max_entries, std::size_t max_bytes)
        : max_entries_(max_entries), max_bytes_(max_bytes)
    {
    }

    /**
     * The canonical cache key of one request.
     *
     * Query parameters arrive as a std::map, so iteration order is
     * already sorted; every component is length-prefixed, making the
     * encoding injective (no separator collisions with decoded
     * parameter or body bytes).
     */
    static std::string canonicalKey(std::string_view endpoint,
                                    const QueryParams &params,
                                    std::string_view body);

    /** Looks up `key`; a hit becomes the most recently used. */
    std::shared_ptr<const std::string> get(const std::string &key);

    /**
     * Inserts a rendered 200 body (no-op when disabled/oversized).
     *
     * @return Entries evicted to make room for this insert.
     */
    std::size_t put(const std::string &key,
                    std::shared_ptr<const std::string> body);

    ResultCacheStats stats() const;

  private:
    /** Most-recently-used entries live at the front of lru_. */
    struct Entry
    {
        std::string key;
        std::shared_ptr<const std::string> body;
    };

    /** Evicts LRU entries until both bounds hold (mutex_ held).
     *  @return The number of entries evicted. */
    std::size_t evictLocked();

    std::size_t max_entries_;
    std::size_t max_bytes_;

    mutable std::mutex mutex_;
    std::list<Entry> lru_;
    std::map<std::string, std::list<Entry>::iterator> index_;
    std::size_t bytes_ = 0; ///< resident body bytes
    std::uint64_t inserted_ = 0;
};

} // namespace serve
} // namespace maestro

#endif // MAESTRO_SERVE_RESULT_CACHE_HH
