/**
 * @file
 * Fork-join helpers for the analysis layers, and the server's worker
 * queue.
 *
 * ThreadPool::run splits an index range across plain threads started
 * for the call beside the calling thread, and blocks until every
 * index ran. Every thread takes its next index off one shared atomic
 * counter, so uneven per-index costs balance automatically. A
 * ThreadPool object is the analysis server's fixed worker queue
 * (submit).
 */

#ifndef MAESTRO_COMMON_THREAD_POOL_HH
#define MAESTRO_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace maestro
{

/**
 * Fixed-size worker pool.
 */
class ThreadPool
{
  public:
    /**
     * Starts `workers` worker threads (0 is valid: submit then runs
     * each task on the calling thread).
     */
    explicit ThreadPool(std::size_t workers);

    /** Drains outstanding tasks and joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (excluding the calling thread). */
    std::size_t workers() const { return threads_.size(); }

    /**
     * Enqueues one task for the workers to run. Fire-and-forget: the
     * caller synchronizes completion itself (the analysis server
     * fulfils a promise per task). With zero workers the task runs
     * inline on the calling thread. The task records its metrics
     * into the submitting thread's lane (obs::boundLane).
     */
    void submit(std::function<void()> task);

    /**
     * Runs body(0) .. body(count - 1) on up to `num_threads` threads
     * in total, the calling thread included (0 or 1 means serial, and
     * starts no thread), and blocks until all indices completed.
     *
     * If a body invocation throws, or a helper thread fails to start,
     * the remaining indices are abandoned and the first exception is
     * rethrown on the calling thread once every started helper has
     * joined. Helpers record their metrics into the calling thread's
     * lane (obs::boundLane).
     */
    static void run(std::size_t num_threads, std::size_t count,
                    const std::function<void(std::size_t)> &body);

    /**
     * Chunked variant of run() for sharded reductions: splits
     * [0, count) into min(count, 4 * num_threads) contiguous ranges (a
     * few per thread, so uneven shards still balance) and runs
     * body(begin, end) for each. Callers that write results into
     * preallocated per-index slots get output independent of the
     * chunking and of num_threads; with num_threads <= 1 this is a
     * single body(0, count) call on the calling thread, and an empty
     * range makes no call.
     */
    static void
    runChunked(std::size_t num_threads, std::size_t count,
               const std::function<void(std::size_t, std::size_t)> &body);

  private:
    /** Worker main loop: pop tasks until stopped. */
    void workerLoop();

    std::vector<std::thread> threads_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> tasks_;
    bool stop_ = false;
};

} // namespace maestro

#endif // MAESTRO_COMMON_THREAD_POOL_HH
