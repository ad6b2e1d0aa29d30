/**
 * @file
 * Admission control for the analysis server.
 *
 * AdmissionController bounds the number of in-flight analysis
 * requests (admitted and not yet finished — queued behind the worker
 * pool or executing). When the bound is reached, new work is rejected
 * up front so the connection can answer 503 + Retry-After instead of
 * queueing unboundedly: the client sees backpressure, the server's
 * memory stays flat.
 *
 * Beyond the global bound, the controller can enforce weighted
 * per-client budgets: each client key (X-Client-Id header or peer
 * address) gets `client_share * weight` in-flight slots, so one
 * tenant saturating its budget is answered 429 while others keep
 * their full share of the queue. The global bound is a lock-free
 * CAS; per-client depths, which /stats and /metrics read as the
 * active-client count, are kept under a small mutex for every
 * request that has a client key, whether or not budgets are on.
 *
 * The server's request, response, and latency counters live in its
 * fleet lane (src/serve/fleet.hh), the one counter store behind
 * GET /stats and GET /metrics; of the controller's state those
 * surfaces read only its configuration and peak depth.
 */

#ifndef MAESTRO_SERVE_ADMISSION_HH
#define MAESTRO_SERVE_ADMISSION_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace maestro
{
namespace serve
{

/**
 * Bounded in-flight request accounting.
 */
class AdmissionController
{
  public:
    /** Outcome of one admission attempt. */
    enum class Admit : std::uint8_t
    {
        Ok,         ///< admitted; caller must release()
        FullGlobal, ///< global in-flight bound hit (503)
        FullClient, ///< the client's budget is exhausted (429)
    };

    /**
     * @param capacity Maximum in-flight requests (>= 1).
     * @param client_share Per-client in-flight slots at weight 1
     *        (0 disables per-client budgets).
     * @param weights Budget multipliers by client key (default 1).
     */
    explicit AdmissionController(
        std::size_t capacity, std::size_t client_share = 0,
        std::map<std::string, std::uint32_t> weights = {})
        : capacity_(capacity == 0 ? 1 : capacity),
          client_share_(client_share), weights_(std::move(weights))
    {
    }

    /**
     * Tries to admit one request for `client` ("" = no per-client
     * accounting). The client's budget is checked only when
     * client_share > 0.
     *
     * On Ok the caller must release() with the same client key.
     * FullClient/FullGlobal map to 429/503; the caller counts them.
     */
    Admit
    admit(const std::string &client)
    {
        if (!client.empty()) {
            std::lock_guard<std::mutex> lock(clients_mutex_);
            std::size_t &depth = client_depth_[client];
            if (client_share_ > 0 && depth >= clientBudget(client))
                return Admit::FullClient;
            ++depth;
        }
        if (admitGlobal())
            return Admit::Ok;
        if (!client.empty())
            releaseClient(client);
        return Admit::FullGlobal;
    }

    /** Returns a slot admitted via admit(client). */
    void
    release(const std::string &client)
    {
        if (!client.empty())
            releaseClient(client);
        depth_.fetch_sub(1, std::memory_order_acq_rel);
    }

    /** The in-flight budget of `client` (client_share * weight). */
    std::size_t
    clientBudget(const std::string &client) const
    {
        const auto it = weights_.find(client);
        const std::uint32_t weight =
            it == weights_.end()
                ? 1
                : std::max<std::uint32_t>(1, it->second);
        return client_share_ * weight;
    }

    /** In-flight requests right now. */
    std::size_t
    depth() const
    {
        return depth_.load(std::memory_order_relaxed);
    }

    /** Highest depth ever observed. */
    std::size_t
    peakDepth() const
    {
        return peak_depth_.load(std::memory_order_relaxed);
    }

    /** Clients with in-flight requests right now. */
    std::size_t
    activeClients() const
    {
        std::lock_guard<std::mutex> lock(clients_mutex_);
        return client_depth_.size();
    }

    std::size_t capacity() const { return capacity_; }

    std::size_t clientShare() const { return client_share_; }

  private:
    /** The lock-free global CAS admission path. */
    bool
    admitGlobal()
    {
        std::size_t depth = depth_.load(std::memory_order_relaxed);
        while (depth < capacity_) {
            if (depth_.compare_exchange_weak(
                    depth, depth + 1, std::memory_order_acq_rel)) {
                // Track the high-water mark for /stats.
                std::size_t peak =
                    peak_depth_.load(std::memory_order_relaxed);
                while (depth + 1 > peak &&
                       !peak_depth_.compare_exchange_weak(
                           peak, depth + 1,
                           std::memory_order_relaxed)) {
                }
                return true;
            }
        }
        return false;
    }

    /** Undoes one per-client admission (erases drained clients). */
    void
    releaseClient(const std::string &client)
    {
        std::lock_guard<std::mutex> lock(clients_mutex_);
        const auto it = client_depth_.find(client);
        if (it == client_depth_.end())
            return;
        if (it->second > 0)
            --it->second;
        if (it->second == 0)
            client_depth_.erase(it);
    }

    std::size_t capacity_;
    std::size_t client_share_;
    std::map<std::string, std::uint32_t> weights_;
    std::atomic<std::size_t> depth_{0};
    std::atomic<std::size_t> peak_depth_{0};

    mutable std::mutex clients_mutex_;
    std::map<std::string, std::size_t> client_depth_;
};

} // namespace serve
} // namespace maestro

#endif // MAESTRO_SERVE_ADMISSION_HH
