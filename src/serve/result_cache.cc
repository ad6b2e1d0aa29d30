#include "src/serve/result_cache.hh"

namespace maestro
{
namespace serve
{

namespace
{

/** Appends a length-prefixed component: "<len>:<bytes>". */
void
appendComponent(std::string &out, std::string_view s)
{
    out += std::to_string(s.size());
    out += ':';
    out.append(s.data(), s.size());
}

} // namespace

std::string
ResultCache::canonicalKey(std::string_view endpoint,
                          const QueryParams &params,
                          std::string_view body)
{
    std::string key;
    key.reserve(endpoint.size() + body.size() + 32);
    appendComponent(key, endpoint);
    for (const auto &[name, value] : params) {
        appendComponent(key, name);
        appendComponent(key, value);
    }
    key += '|';
    key.append(body.data(), body.size());
    return key;
}

std::shared_ptr<const std::string>
ResultCache::get(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end())
        return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->body;
}

std::size_t
ResultCache::put(const std::string &key,
                 std::shared_ptr<const std::string> body)
{
    if (max_entries_ == 0 || !body || body->size() > max_bytes_)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
        // Concurrent compute of the same request: both renders are
        // byte-identical, keep the resident one.
        lru_.splice(lru_.begin(), lru_, it->second);
        return 0;
    }
    lru_.push_front(Entry{key, std::move(body)});
    index_[key] = lru_.begin();
    bytes_ += lru_.front().body->size();
    ++inserted_;
    return evictLocked();
}

std::size_t
ResultCache::evictLocked()
{
    std::size_t evicted = 0;
    while (!lru_.empty() && (index_.size() > max_entries_ ||
                             bytes_ > max_bytes_)) {
        const Entry &victim = lru_.back();
        bytes_ -= victim.body->size();
        index_.erase(victim.key);
        lru_.pop_back();
        ++evicted;
    }
    return evicted;
}

ResultCacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {inserted_, index_.size(), bytes_};
}

} // namespace serve
} // namespace maestro
