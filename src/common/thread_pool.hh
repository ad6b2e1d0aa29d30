/**
 * @file
 * Small fixed-size worker pool for batch analysis.
 *
 * The pool owns N worker threads draining a task queue. The only
 * high-level primitive the analysis layers need is parallelFor: split
 * an index range across the workers (the calling thread participates,
 * so a pool of W workers gives W+1-way concurrency) and block until
 * every index ran. Work items self-schedule off a shared atomic
 * counter, so uneven per-index costs balance automatically.
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
     * Starts `workers` worker threads (0 is valid: parallelFor then
     * runs entirely on the calling thread).
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
     * inline on the calling thread.
     */
    void submit(std::function<void()> task);

    /**
     * Runs body(0) .. body(count - 1), split across the workers and
     * the calling thread, and blocks until all indices completed.
     *
     * If a body invocation throws, the remaining indices are
     * abandoned and the first exception is rethrown on the calling
     * thread once in-flight invocations drain.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

    /**
     * Concurrency helper used by the analysis APIs: interprets a
     * user-facing `num_threads` knob (total concurrent threads; 0 or
     * 1 means serial) and runs the loop accordingly. Serial execution
     * does not spawn any thread.
     */
    static void run(std::size_t num_threads, std::size_t count,
                    const std::function<void(std::size_t)> &body);

    /**
     * Chunked variant of run() for sharded reductions: splits
     * [0, count) into contiguous ranges (a few per thread, so uneven
     * shards still balance) and runs body(begin, end) for each.
     * Callers that write results into preallocated per-index slots get
     * output independent of the chunking and of num_threads; with
     * num_threads <= 1 this is a single body(0, count) call on the
     * calling thread.
     */
    static void
    runChunked(std::size_t num_threads, std::size_t count,
               const std::function<void(std::size_t, std::size_t)> &body);

    /**
     * How many body(begin, end) calls runChunked makes for
     * [0, count) at `num_threads`: 0 for an empty range, 1 for a
     * serial run or a single index.
     */
    static std::size_t chunkCount(std::size_t num_threads,
                                  std::size_t count);

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
