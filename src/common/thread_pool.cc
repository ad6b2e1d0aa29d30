#include "src/common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

#include "src/obs/obs.hh"
#include "src/obs/shared_metrics.hh"

namespace maestro
{

namespace
{

/** Span site of one submitted task's execution. */
constexpr obs::Site kTaskSite{"pool.task", "pool",
                              "maestro_pool_task_run_us"};

/** Span site of one run() batch (the calling thread's view). */
constexpr obs::Site kForkJoinSite{"pool.parallel_for", "pool",
                                  "maestro_pool_parallel_for_us"};

/**
 * Wraps a task so it runs in the submitter's metrics lane and, when
 * instrumentation is on at submit time, records its queue wait and
 * run time (the disabled path costs one relaxed load).
 */
std::function<void()>
handOff(std::function<void()> task)
{
    const bool timed = obs::mode() != 0;
    const auto enqueued = timed ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
    return [task = std::move(task), lane = obs::boundLane(), timed,
            enqueued] {
        const obs::LaneBinding binding(lane);
        if (!timed) {
            task();
            return;
        }
        const auto started = std::chrono::steady_clock::now();
        const std::uint64_t wait_us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                started - enqueued)
                .count());
        if ((obs::mode() & obs::kTiming) != 0)
            obs::recordHistogram("maestro_pool_queue_wait_us", wait_us);
        obs::ScopedSpan span(kTaskSite);
        span.arg("queue_wait_us", wait_us);
        task();
    };
}

/** How many body(begin, end) calls runChunked makes for [0, count)
 *  at `num_threads`. */
std::size_t
chunkCount(std::size_t num_threads, std::size_t count)
{
    if (num_threads <= 1 || count <= 1)
        return std::min<std::size_t>(count, 1);
    return std::min(count, num_threads * 4);
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
    task = handOff(std::move(task));
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
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

    obs::ScopedSpan span(kForkJoinSite);
    span.arg("count", count);
    const obs::Lane lane = obs::boundLane();

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    // Keeps the first exception and cancels the remaining indices.
    const auto fail = [&](std::exception_ptr e) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error)
            error = std::move(e);
        next.store(count);
    };
    const auto drain = [&] {
        const obs::LaneBinding binding(lane);
        for (std::size_t i; (i = next.fetch_add(1)) < count;) {
            try {
                body(i);
            } catch (...) {
                fail(std::current_exception());
                return;
            }
        }
    };

    const std::size_t wanted = std::min(num_threads, count) - 1;
    std::vector<std::thread> helpers;
    helpers.reserve(wanted);
    try {
        while (helpers.size() < wanted)
            helpers.emplace_back(drain);
    } catch (...) {
        fail(std::current_exception());
    }
    drain();
    for (std::thread &helper : helpers)
        helper.join();
    if (error)
        std::rethrow_exception(error);
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

} // namespace maestro
