#include "src/common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>

#include "src/obs/metrics.hh"
#include "src/obs/obs.hh"

namespace maestro
{

namespace
{

/** Span site of one submitted task's execution. */
const obs::Site &
taskSite()
{
    static const obs::Site site{
        "pool.task", "pool",
        &obs::Registry::global().histogram(
            "maestro_pool_task_run_us",
            "Run time of tasks executed by the thread pool in "
            "microseconds")};
    return site;
}

/** Span site of one parallelFor batch (the calling thread's view). */
const obs::Site &
parallelForSite()
{
    static const obs::Site site{
        "pool.parallel_for", "pool",
        &obs::Registry::global().histogram(
            "maestro_pool_parallel_for_us",
            "Wall time of parallelFor batches in microseconds")};
    return site;
}

/** Queue-wait histogram (enqueue -> first execution). */
LatencyHistogram &
queueWaitHistogram()
{
    static LatencyHistogram &h = obs::Registry::global().histogram(
        "maestro_pool_queue_wait_us",
        "Time tasks spent queued behind the worker pool in "
        "microseconds");
    return h;
}

/**
 * Wraps a task so its execution records queue-wait and run-time
 * observability. Only called when instrumentation is enabled at
 * submit time (the disabled path costs one relaxed load).
 */
std::function<void()>
instrumentTask(std::function<void()> task)
{
    const auto enqueued = std::chrono::steady_clock::now();
    return [task = std::move(task), enqueued] {
        const auto started = std::chrono::steady_clock::now();
        const std::uint64_t wait_us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                started - enqueued)
                .count());
        if ((obs::mode() & obs::kTiming) != 0)
            queueWaitHistogram().record(wait_us);
        obs::ScopedSpan span(taskSite());
        span.arg("queue_wait_us", wait_us);
        task();
    };
}

/** Shared state of one parallelFor batch. */
struct ForState
{
    std::atomic<std::size_t> next{0}; ///< next unclaimed index
    std::size_t count = 0;            ///< total indices
    std::mutex mutex;
    std::condition_variable done_cv;
    std::size_t pending_helpers = 0;  ///< helpers still draining
    std::exception_ptr error;         ///< first body exception
};

/**
 * Drains indices off the shared counter until exhausted (or until an
 * error cancels the batch).
 */
void
drain(ForState &state, const std::function<void(std::size_t)> &body)
{
    std::size_t i;
    while ((i = state.next.fetch_add(1)) < state.count) {
        try {
            body(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(state.mutex);
            if (!state.error)
                state.error = std::current_exception();
            // Cancel the remaining indices.
            state.next.store(state.count);
            return;
        }
    }
}

} // namespace

ThreadPool::ThreadPool(std::size_t workers)
{
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stop_ set and queue drained
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (threads_.empty()) {
        task();
        return;
    }
    if (obs::mode() != 0)
        task = instrumentTask(std::move(task));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;
    if (threads_.empty() || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    obs::ScopedSpan span(parallelForSite());
    span.arg("count", count);

    const auto state = std::make_shared<ForState>();
    state->count = count;
    const std::size_t helpers = std::min(threads_.size(), count - 1);
    {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->pending_helpers = helpers;
    }
    for (std::size_t h = 0; h < helpers; ++h) {
        // The state shared_ptr keeps the batch alive until every
        // helper checked out; `body` outlives the batch because
        // parallelFor blocks below until pending_helpers hits zero.
        submit([state, &body] {
            drain(*state, body);
            std::lock_guard<std::mutex> lock(state->mutex);
            if (--state->pending_helpers == 0)
                state->done_cv.notify_all();
        });
    }

    drain(*state, body);

    std::unique_lock<std::mutex> lock(state->mutex);
    state->done_cv.wait(
        lock, [&] { return state->pending_helpers == 0; });
    if (state->error)
        std::rethrow_exception(state->error);
}

void
ThreadPool::run(std::size_t num_threads, std::size_t count,
                const std::function<void(std::size_t)> &body)
{
    if (num_threads <= 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    ThreadPool pool(num_threads - 1);
    pool.parallelFor(count, body);
}

void
ThreadPool::runChunked(
    std::size_t num_threads, std::size_t count,
    const std::function<void(std::size_t, std::size_t)> &body)
{
    const std::size_t chunks = chunkCount(num_threads, count);
    if (chunks == 0)
        return;
    if (chunks == 1) {
        body(0, count);
        return;
    }
    run(num_threads, chunks, [&](std::size_t chunk) {
        const std::size_t begin = chunk * count / chunks;
        const std::size_t end = (chunk + 1) * count / chunks;
        if (begin < end)
            body(begin, end);
    });
}

std::size_t
ThreadPool::chunkCount(std::size_t num_threads, std::size_t count)
{
    if (num_threads <= 1 || count <= 1)
        return std::min<std::size_t>(count, 1);
    return std::min(count, num_threads * 4);
}

} // namespace maestro
