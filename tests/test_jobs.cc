/**
 * @file
 * Unit tests for the async job subsystem: content hashing, the
 * content-addressed result cache, per-client admission budgets, and
 * the JobStore's lifecycle / bounds / fair-dequeue / determinism
 * guarantees (the server-level integration lives in test_serve.cc).
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/hash.hh"
#include "src/common/thread_pool.hh"
#include "src/serve/admission.hh"
#include "src/serve/jobs.hh"
#include "src/serve/result_cache.hh"

namespace maestro
{
namespace serve
{
namespace
{

// ---------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------

TEST(Hash, Fnv1aKnownVectors)
{
    // Standard FNV-1a 64 test vectors: the hash must be stable
    // across builds — job ids are derived from it.
    EXPECT_EQ(hashBytes(""), kFnvOffsetBasis);
    EXPECT_EQ(hashBytes("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(hashBytes("foobar"), 0x85944171f73967e8ull);
}

TEST(Hash, HexIsFixedWidthLowercase)
{
    EXPECT_EQ(hashHex(0), "0000000000000000");
    EXPECT_EQ(hashHex(kFnvOffsetBasis), "cbf29ce484222325");
    EXPECT_EQ(hashHex(0xffffffffffffffffull), "ffffffffffffffff");
}

TEST(Hash, CombineFoldsIntegers)
{
    const std::uint64_t h = hashBytes("seed");
    EXPECT_NE(hashCombine(h, 1), hashCombine(h, 2));
    EXPECT_NE(hashCombine(h, 0), h);
    EXPECT_EQ(hashCombine(h, 7), hashCombine(h, 7));
}

// ---------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------

TEST(ResultCache, CanonicalKeyIsInjective)
{
    // Length prefixes keep component boundaries unambiguous: moving
    // bytes between endpoint, params, and body must change the key.
    QueryParams none;
    QueryParams x1{{"x", "1"}};
    const std::string a = ResultCache::canonicalKey("/a", x1, "b");
    EXPECT_NE(a, ResultCache::canonicalKey("/a", none, "x1b"));
    EXPECT_NE(a, ResultCache::canonicalKey("/ax", none, "1b"));
    EXPECT_NE(a, ResultCache::canonicalKey("/a", x1, ""));
    EXPECT_NE(ResultCache::canonicalKey("/a", {{"x", "12"}}, ""),
              ResultCache::canonicalKey("/a", {{"x1", "2"}}, ""));
    // Equal inputs produce equal keys (params arrive sorted).
    EXPECT_EQ(a, ResultCache::canonicalKey("/a", x1, "b"));
}

TEST(ResultCache, HitServesIdenticalBytesAndCounts)
{
    ResultCache cache(8, 1 << 20);
    const std::string key =
        ResultCache::canonicalKey("/analyze", {}, "body");
    EXPECT_EQ(cache.get(key), nullptr);
    const auto body = std::make_shared<const std::string>("rendered");
    EXPECT_EQ(cache.put(key, body), 0u);
    const auto hit = cache.get(key);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, "rendered");
    // A hit shares the resident body; it never copies it.
    EXPECT_EQ(hit, body);

    const ResultCacheStats stats = cache.stats();
    EXPECT_EQ(stats.inserted, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.bytes, 8u);
}

TEST(ResultCache, LruEvictionByEntryCount)
{
    ResultCache cache(2, 1 << 20);
    const auto body = [](const char *s) {
        return std::make_shared<const std::string>(s);
    };
    EXPECT_EQ(cache.put("k1", body("v1")), 0u);
    EXPECT_EQ(cache.put("k2", body("v2")), 0u);
    ASSERT_NE(cache.get("k1"), nullptr);         // k1 now most recent
    EXPECT_EQ(cache.put("k3", body("v3")), 1u); // evicts k2 (LRU)
    EXPECT_EQ(cache.get("k2"), nullptr);
    EXPECT_NE(cache.get("k1"), nullptr);
    EXPECT_NE(cache.get("k3"), nullptr);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().inserted, 3u);
}

TEST(ResultCache, ByteBudgetBoundsResidency)
{
    ResultCache cache(100, 10);
    cache.put("a", std::make_shared<const std::string>("123456"));
    // 12 resident bytes > 10: the older entry must go.
    EXPECT_EQ(cache.put("b", std::make_shared<const std::string>("123456")),
              1u);
    EXPECT_EQ(cache.get("a"), nullptr);
    EXPECT_NE(cache.get("b"), nullptr);
    EXPECT_LE(cache.stats().bytes, 10u);

    // A body that alone exceeds the budget is never inserted.
    EXPECT_EQ(cache.put("big", std::make_shared<const std::string>(
                                   "12345678901")),
              0u);
    EXPECT_EQ(cache.get("big"), nullptr);
    EXPECT_EQ(cache.stats().inserted, 2u);
}

TEST(ResultCache, ZeroEntriesDisablesCaching)
{
    ResultCache cache(0, 1 << 20);
    EXPECT_EQ(cache.put("k", std::make_shared<const std::string>("v")),
              0u);
    EXPECT_EQ(cache.get("k"), nullptr);
    EXPECT_EQ(cache.stats().inserted, 0u);
    EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------------
// Per-client admission budgets
// ---------------------------------------------------------------

TEST(Admission, PerClientBudgetsWeighted)
{
    AdmissionController admission(8, 1, {{"heavy", 2}});
    EXPECT_EQ(admission.clientBudget("alice"), 1u);
    EXPECT_EQ(admission.clientBudget("heavy"), 2u);

    EXPECT_EQ(admission.admit("alice"),
              AdmissionController::Admit::Ok);
    EXPECT_EQ(admission.admit("alice"),
              AdmissionController::Admit::FullClient);

    // A weight-2 client gets twice the share; others are unaffected
    // by alice saturating hers.
    EXPECT_EQ(admission.admit("heavy"),
              AdmissionController::Admit::Ok);
    EXPECT_EQ(admission.admit("heavy"),
              AdmissionController::Admit::Ok);
    EXPECT_EQ(admission.admit("heavy"),
              AdmissionController::Admit::FullClient);
    EXPECT_EQ(admission.activeClients(), 2u);

    admission.release("alice");
    EXPECT_EQ(admission.admit("alice"),
              AdmissionController::Admit::Ok);
    admission.release("alice");
    admission.release("heavy");
    admission.release("heavy");
    EXPECT_EQ(admission.activeClients(), 0u);
    EXPECT_EQ(admission.depth(), 0u);
}

TEST(Admission, GlobalBoundRollsBackClientSlot)
{
    AdmissionController admission(1, 4);
    EXPECT_EQ(admission.admit("a"), AdmissionController::Admit::Ok);
    // The global bound rejects b, and b's per-client slot must be
    // returned — otherwise retries would leak b's budget away.
    EXPECT_EQ(admission.admit("b"),
              AdmissionController::Admit::FullGlobal);
    EXPECT_EQ(admission.activeClients(), 1u);
    admission.release("a");
    EXPECT_EQ(admission.admit("b"), AdmissionController::Admit::Ok);
    admission.release("b");
    EXPECT_EQ(admission.activeClients(), 0u);
}

TEST(Admission, ZeroShareDisablesClientBudgets)
{
    // Share 0 turns the per-client budget (429) off, but in-flight
    // clients are still counted for /stats and /metrics.
    AdmissionController admission(3, 0);
    EXPECT_EQ(admission.admit("a"), AdmissionController::Admit::Ok);
    EXPECT_EQ(admission.admit("a"), AdmissionController::Admit::Ok);
    EXPECT_EQ(admission.admit("b"), AdmissionController::Admit::Ok);
    EXPECT_EQ(admission.activeClients(), 2u);
    // The global bound still rejects, and rolls back c's slot.
    EXPECT_EQ(admission.admit("c"),
              AdmissionController::Admit::FullGlobal);
    EXPECT_EQ(admission.activeClients(), 2u);
    admission.release("a");
    EXPECT_EQ(admission.activeClients(), 2u);
    admission.release("a");
    admission.release("b");
    EXPECT_EQ(admission.activeClients(), 0u);
    EXPECT_EQ(admission.depth(), 0u);
}

// ---------------------------------------------------------------
// Job store
// ---------------------------------------------------------------

/** Counting semaphore gating executor completions in tests. */
class Gate
{
  public:
    void
    release(int n = 1)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            permits_ += n;
        }
        cv_.notify_all();
    }

    void
    acquire()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return permits_ > 0; });
        --permits_;
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    int permits_ = 0;
};

/** Spins until `pred` holds (bounded; fails the test on timeout). */
template <typename Pred>
void
waitUntil(Pred pred, const char *what)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    while (!pred()) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "timed out waiting for " << what;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/** Spins until job `id` is terminal: its poll reply carries no
 *  Retry-After (done, failed, cancelled, or no longer resident). */
void
waitTerminal(const JobStore &store, const std::string &id)
{
    waitUntil([&] { return !store.poll(id).retry_after; }, id.c_str());
}

/**
 * Counts a store's lifecycle events by name through its observer,
 * the hook the server's fleet lane counts through. Declare it before
 * the pool and the store: a job finishing on the pool thread while
 * the test unwinds still reports into it.
 */
class EventCounts
{
  public:
    void
    observe(JobStore &store)
    {
        store.setObservers(
            [this](const obs::JobEvent &e) {
                std::lock_guard<std::mutex> lock(mutex_);
                ++counts_[std::string(e.event)];
            },
            nullptr);
    }

    std::uint64_t
    operator[](const std::string &event) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = counts_.find(event);
        return it == counts_.end() ? 0 : it->second;
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::uint64_t> counts_;
};

JobRequest
makeRequest(const std::string &body)
{
    JobRequest request;
    request.path = "/analyze";
    request.body = body;
    request.canonical = ResultCache::canonicalKey(
        request.path, request.params, request.body);
    return request;
}

/** Pure echo executor: the terminal body is a function of the
 *  request body alone (bodies starting with "fail" fail). */
JobOutcome
echoExecutor(const JobRequest &request)
{
    if (request.body.rfind("fail", 0) == 0)
        return {400, "{\"error\":\"" + request.body + "\"}"};
    return {200, "{\"echo\":\"" + request.body + "\"}"};
}

TEST(Jobs, LifecycleServesTerminalBodyVerbatim)
{
    EventCounts events;
    ThreadPool pool(2);
    JobStore store(&pool, echoExecutor, 8, 0, 2);
    events.observe(store);

    const JobReply accepted =
        store.submit("alice", "j1", makeRequest("x"));
    EXPECT_EQ(accepted.status, 202);
    EXPECT_EQ(accepted.body, "{\"id\":\"j1\",\"state\":\"queued\"}");
    EXPECT_FALSE(accepted.retry_after);

    waitTerminal(store, "j1");
    const JobReply done = store.poll("j1");
    EXPECT_EQ(done.status, 200);
    EXPECT_EQ(done.body, "{\"echo\":\"x\"}");
    EXPECT_FALSE(done.retry_after);

    EXPECT_EQ(events["submitted"], 1u);
    EXPECT_EQ(events["completed"], 1u);
    // The finished job stays resident.
    EXPECT_EQ(store.listJson(), "{\"count\":1,\"jobs\":["
                                "{\"id\":\"j1\",\"state\":\"done\"}]}");
}

TEST(Jobs, FailedJobKeepsErrorStatusAndBody)
{
    ThreadPool pool(1);
    JobStore store(&pool, echoExecutor, 8, 0, 1);
    store.submit("alice", "jf", makeRequest("fail-me"));
    waitTerminal(store, "jf");
    const JobReply failed = store.poll("jf");
    EXPECT_EQ(failed.status, 400);
    EXPECT_EQ(failed.body, "{\"error\":\"fail-me\"}");
}

TEST(Jobs, ThrowingExecutorBecomesFailed500)
{
    ThreadPool pool(1);
    JobStore store(
        &pool,
        [](const JobRequest &) -> JobOutcome {
            throw std::runtime_error("executor exploded");
        },
        8, 0, 1);
    store.submit("alice", "jx", makeRequest("x"));
    waitTerminal(store, "jx");
    const JobReply failed = store.poll("jx");
    EXPECT_EQ(failed.status, 500);
    EXPECT_NE(failed.body.find("executor exploded"),
              std::string::npos);
}

TEST(Jobs, ResubmitIsIdempotentCollisionIsExplicit)
{
    Gate gate;
    EventCounts events;
    ThreadPool pool(1);
    JobStore store(
        &pool,
        [&](const JobRequest &request) -> JobOutcome {
            gate.acquire();
            return echoExecutor(request);
        },
        8, 0, 1);
    events.observe(store);

    EXPECT_EQ(store.submit("alice", "j1", makeRequest("x")).status,
              202);
    // Identical resubmission (same id, same canonical): attach, do
    // not re-run — even from a different client.
    const JobReply dup = store.submit("bob", "j1", makeRequest("x"));
    EXPECT_EQ(dup.status, 200);
    EXPECT_NE(dup.body.find("\"id\":\"j1\""), std::string::npos);
    EXPECT_EQ(events["resubmitted"], 1u);
    EXPECT_EQ(events["submitted"], 1u);

    // Same id, different canonical: a hash collision must surface
    // as an error, never as someone else's result.
    const JobReply clash =
        store.submit("alice", "j1", makeRequest("y"));
    EXPECT_EQ(clash.status, 500);
    EXPECT_NE(clash.body.find("collision"), std::string::npos);

    gate.release();
    waitTerminal(store, "j1");
    EXPECT_EQ(store.poll("j1").body, "{\"echo\":\"x\"}");
}

TEST(Jobs, PerClientActiveBoundAnswers429)
{
    Gate gate;
    EventCounts events;
    ThreadPool pool(1);
    JobStore store(
        &pool,
        [&](const JobRequest &request) -> JobOutcome {
            gate.acquire();
            return echoExecutor(request);
        },
        8, 1, 1);
    events.observe(store);

    EXPECT_EQ(store.submit("alice", "j1", makeRequest("a")).status,
              202);
    const JobReply over =
        store.submit("alice", "j2", makeRequest("b"));
    EXPECT_EQ(over.status, 429);
    EXPECT_TRUE(over.retry_after);
    EXPECT_NE(over.body.find("alice"), std::string::npos);
    EXPECT_EQ(events["rejected_client"], 1u);

    // Another client is unaffected by alice's bound.
    EXPECT_EQ(store.submit("bob", "j3", makeRequest("c")).status,
              202);

    gate.release(2);
    waitTerminal(store, "j1");
    waitTerminal(store, "j3");
    // Terminal jobs no longer count against the active bound.
    EXPECT_EQ(store.submit("alice", "j4", makeRequest("d")).status,
              202);
    gate.release();
    waitTerminal(store, "j4");
    EXPECT_EQ(events["completed"], 3u);
}

TEST(Jobs, CapacityEvictsOldestSubmittedTerminal)
{
    EventCounts events;
    ThreadPool pool(1);
    JobStore store(&pool, echoExecutor, 2, 0, 1);
    events.observe(store);

    store.submit("a", "j1", makeRequest("1"));
    store.submit("a", "j2", makeRequest("2"));
    waitTerminal(store, "j1");
    waitTerminal(store, "j2");

    // The store is at capacity with two terminal jobs; the next
    // submit evicts the oldest SUBMITTED one (j1).
    EXPECT_EQ(store.submit("a", "j3", makeRequest("3")).status, 202);
    EXPECT_EQ(store.poll("j1").status, 404);
    EXPECT_EQ(store.poll("j2").status, 200);
    EXPECT_EQ(events["evicted"], 1u);
}

TEST(Jobs, FullOfActiveJobsAnswers503)
{
    Gate gate;
    EventCounts events;
    ThreadPool pool(1);
    JobStore store(
        &pool,
        [&](const JobRequest &request) -> JobOutcome {
            gate.acquire();
            return echoExecutor(request);
        },
        1, 0, 1);
    events.observe(store);

    EXPECT_EQ(store.submit("a", "j1", makeRequest("1")).status, 202);
    const JobReply full = store.submit("a", "j2", makeRequest("2"));
    EXPECT_EQ(full.status, 503);
    EXPECT_TRUE(full.retry_after);
    EXPECT_EQ(events["rejected_capacity"], 1u);
    gate.release();
    waitTerminal(store, "j1");
}

TEST(Jobs, CancelSemanticsByState)
{
    Gate gate;
    EventCounts events;
    ThreadPool pool(1);
    std::atomic<int> started{0};
    JobStore store(
        &pool,
        [&](const JobRequest &request) -> JobOutcome {
            ++started;
            gate.acquire();
            return echoExecutor(request);
        },
        8, 0, 1);
    events.observe(store);

    store.submit("a", "j1", makeRequest("1"));
    waitUntil([&] { return started.load() == 1; }, "j1 to start");
    store.submit("a", "j2", makeRequest("2")); // queued behind j1

    // Unknown id.
    EXPECT_EQ(store.cancel("nope").status, 404);
    // Queued: cancelled; its poll body says so and it stays
    // resident (a client may still ask what happened to it).
    EXPECT_EQ(store.cancel("j2").status, 200);
    EXPECT_EQ(store.poll("j2").body,
              "{\"id\":\"j2\",\"state\":\"cancelled\"}");
    // Running: refused.
    EXPECT_EQ(store.cancel("j1").status, 409);

    gate.release();
    waitTerminal(store, "j1");
    // Terminal: removed outright.
    EXPECT_EQ(store.cancel("j1").status, 200);
    EXPECT_EQ(store.poll("j1").status, 404);
    EXPECT_EQ(events["cancelled"], 1u);
}

TEST(Jobs, WeightedFairDequeueOrder)
{
    Gate gate;
    std::mutex order_mutex;
    std::vector<std::string> order;
    ThreadPool pool(1);
    JobStore store(
        &pool,
        [&](const JobRequest &request) -> JobOutcome {
            {
                std::lock_guard<std::mutex> lock(order_mutex);
                order.push_back(request.body);
            }
            gate.acquire();
            return echoExecutor(request);
        },
        16, 0, 1, {{"c", 2}});

    const auto started = [&] {
        std::lock_guard<std::mutex> lock(order_mutex);
        return order.size();
    };

    // a2 dispatches immediately (only job); the rest queue behind
    // it while the executor blocks.
    store.submit("a", "a2", makeRequest("a2"));
    waitUntil([&] { return started() == 1; }, "a2 to start");
    store.submit("a", "a3", makeRequest("a3"));
    store.submit("a", "a4", makeRequest("a4"));
    store.submit("b", "b1", makeRequest("b1"));
    store.submit("c", "c1", makeRequest("c1"));
    store.submit("c", "c2", makeRequest("c2"));

    for (std::size_t n = 2; n <= 6; ++n) {
        gate.release();
        waitUntil([&] { return started() == n; }, "next dispatch");
    }
    gate.release();
    for (const char *id : {"a2", "a3", "a4", "b1", "c1", "c2"})
        waitTerminal(store, id);

    // Weighted round-robin from cursor "a\0" (a2 emptied client a):
    // b gets 1, c gets its weight of 2, then back to a's backlog —
    // one chatty client cannot starve the others.
    const std::vector<std::string> expected = {"a2", "b1", "c1",
                                               "c2", "a3", "a4"};
    std::lock_guard<std::mutex> lock(order_mutex);
    EXPECT_EQ(order, expected);
}

TEST(Jobs, ListJsonInSubmissionOrder)
{
    ThreadPool pool(1);
    JobStore store(&pool, echoExecutor, 8, 0, 1);
    store.submit("a", "jb", makeRequest("1"));
    store.submit("a", "ja", makeRequest("2"));
    waitTerminal(store, "jb");
    waitTerminal(store, "ja");
    // Submission order, not id order.
    EXPECT_EQ(store.listJson(),
              "{\"count\":2,\"jobs\":["
              "{\"id\":\"jb\",\"state\":\"done\"},"
              "{\"id\":\"ja\",\"state\":\"done\"}]}");
}

TEST(Jobs, ShutdownCancelsQueuedKeepsFinished)
{
    Gate gate;
    std::atomic<int> started{0};
    ThreadPool pool(1);
    JobStore store(
        &pool,
        [&](const JobRequest &request) -> JobOutcome {
            ++started;
            gate.acquire();
            return echoExecutor(request);
        },
        8, 0, 1);

    store.submit("a", "j1", makeRequest("1"));
    waitUntil([&] { return started.load() == 1; }, "j1 to start");
    store.submit("a", "j2", makeRequest("2"));

    // Let the running job finish shortly after the drain begins;
    // shutdown must block until it does.
    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        gate.release();
    });
    store.shutdown();
    releaser.join();

    EXPECT_EQ(store.poll("j1").body, "{\"echo\":\"1\"}");
    EXPECT_EQ(store.poll("j2").body,
              "{\"id\":\"j2\",\"state\":\"cancelled\"}");
    const JobReply rejected =
        store.submit("a", "j3", makeRequest("3"));
    EXPECT_EQ(rejected.status, 503);
    EXPECT_NE(rejected.body.find("draining"), std::string::npos);
}

TEST(Jobs, ObserversSeeLifecycleEventsWithTraceAndTimings)
{
    /** One copied observation (views die with the callback). */
    struct Seen
    {
        std::string event, id, client, endpoint, trace;
        int status;
        bool has_queue_wait, has_run;
    };
    // Declared before the pool and the store: a job finishing on the
    // pool thread while the test unwinds still reports into them.
    std::mutex seen_mutex;
    std::vector<Seen> seen;
    std::size_t gauge_calls = 0;

    ThreadPool pool(1);
    JobStore store(&pool, echoExecutor, 8, 1, 1);
    store.setObservers(
        [&](const obs::JobEvent &info) {
            std::lock_guard<std::mutex> lock(seen_mutex);
            seen.push_back({std::string(info.event),
                            std::string(info.id),
                            std::string(info.client),
                            std::string(info.endpoint),
                            std::string(info.trace), info.status,
                            info.has_queue_wait, info.has_run});
        },
        [&](std::size_t, std::size_t, std::size_t, std::uint64_t) {
            std::lock_guard<std::mutex> lock(seen_mutex);
            ++gauge_calls;
        });

    const JobReply accepted =
        store.submit("alice", "j1", makeRequest("x"), "trace-7");
    EXPECT_EQ(accepted.trace_id, "trace-7");
    waitTerminal(store, "j1");

    // Polls and resubmits echo the FIRST submitter's trace id.
    EXPECT_EQ(store.poll("j1").trace_id, "trace-7");
    EXPECT_EQ(store.submit("bob", "j1", makeRequest("x"), "trace-9")
                  .trace_id,
              "trace-7");

    // A second job for alice while her bound is 1... needs an active
    // job, so exercise the rejection with a queued-forever setup
    // instead: per_client_active=1 counts ACTIVE jobs, and j1 is
    // terminal, so submit two fresh jobs back to back.
    store.submit("carol", "j2", makeRequest("y"), "t2");
    store.submit("carol", "j3", makeRequest("z"), "t3");
    waitTerminal(store, "j2");
    waitTerminal(store, "j3");

    // Snapshot under the observers' lock: carol's jobs may still be
    // reporting from the pool thread.
    std::vector<Seen> copy;
    std::size_t gauges_seen = 0;
    {
        std::lock_guard<std::mutex> lock(seen_mutex);
        copy = seen;
        gauges_seen = gauge_calls;
    }
    const auto find = [&](const char *event, const char *id) {
        for (const Seen &s : copy)
            if (s.event == event && s.id == id)
                return &s;
        return static_cast<const Seen *>(nullptr);
    };

    const Seen *submitted = find("submitted", "j1");
    ASSERT_NE(submitted, nullptr);
    EXPECT_EQ(submitted->client, "alice");
    EXPECT_EQ(submitted->endpoint, "analyze");
    EXPECT_EQ(submitted->trace, "trace-7");
    EXPECT_EQ(submitted->status, 0);

    const Seen *started = find("started", "j1");
    ASSERT_NE(started, nullptr);
    EXPECT_TRUE(started->has_queue_wait);
    EXPECT_FALSE(started->has_run);

    const Seen *completed = find("completed", "j1");
    ASSERT_NE(completed, nullptr);
    EXPECT_EQ(completed->status, 200);
    EXPECT_TRUE(completed->has_run);
    EXPECT_EQ(completed->trace, "trace-7");

    const Seen *resubmitted = find("resubmitted", "j1");
    ASSERT_NE(resubmitted, nullptr);
    // The duplicate submit is attributed to the job's owner (the
    // FIRST submitter), and the job keeps that submitter's trace.
    EXPECT_EQ(resubmitted->client, "alice");
    EXPECT_EQ(resubmitted->trace, "trace-7");

    EXPECT_GT(gauges_seen, 0u);
}

TEST(Jobs, FailureAndEvictionEventsCarryTerminalStatus)
{
    // Declared before the pool and the store (see above).
    std::mutex seen_mutex;
    std::vector<std::pair<std::string, int>> seen;

    ThreadPool pool(1);
    JobStore store(&pool, echoExecutor, 2, 0, 1);
    store.setObservers(
        [&](const obs::JobEvent &info) {
            std::lock_guard<std::mutex> lock(seen_mutex);
            seen.emplace_back(std::string(info.event), info.status);
        },
        nullptr);

    store.submit("a", "f1", makeRequest("fail-1"));
    waitTerminal(store, "f1");
    store.submit("a", "ok1", makeRequest("1"));
    waitTerminal(store, "ok1");
    // Capacity 2 with two terminal residents: the next submit
    // evicts the oldest terminal (f1, status 400).
    store.submit("a", "ok2", makeRequest("2"));
    EXPECT_EQ(store.poll("f1").status, 404);

    std::lock_guard<std::mutex> lock(seen_mutex);
    bool saw_failed = false, saw_evicted = false;
    for (const auto &[event, status] : seen) {
        if (event == "failed") {
            EXPECT_EQ(status, 400);
            saw_failed = true;
        }
        if (event == "evicted") {
            EXPECT_EQ(status, 400); // f1's terminal status
            saw_evicted = true;
        }
    }
    EXPECT_TRUE(saw_failed);
    EXPECT_TRUE(saw_evicted);
}

/**
 * Determinism across worker-thread counts: one seeded script of
 * submit / duplicate-submit / poll / cancel-after-drain operations
 * with periodic full drains runs at 1 and at 4 pool threads;
 * terminal job bodies, the resident set, and every deterministic
 * counter must match exactly. Drains make each capacity decision
 * script-determined: at every submit the terminal-resident set (the
 * eviction candidates) is fixed by the script, not by completion
 * timing.
 */
struct ScriptResult
{
    std::string list;
    std::map<std::string, std::pair<int, std::string>> terminal;
    std::uint64_t evicted = 0;
    std::uint64_t submitted = 0;
    std::uint64_t resubmitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;

    bool
    operator==(const ScriptResult &other) const
    {
        return list == other.list && terminal == other.terminal &&
               evicted == other.evicted &&
               submitted == other.submitted &&
               resubmitted == other.resubmitted &&
               completed == other.completed &&
               failed == other.failed;
    }
};

ScriptResult
runJobScript(std::size_t pool_threads, std::uint32_t seed)
{
    EventCounts events;
    ThreadPool pool(pool_threads);
    JobStore store(&pool, echoExecutor, 8, 0,
                   std::max<std::size_t>(1, pool_threads));
    events.observe(store);

    // Every resident job was submitted under one of these ids, so
    // the store is idle once each of them is terminal.
    std::vector<std::string> submitted_ids;
    const auto drain = [&] {
        for (const std::string &id : submitted_ids)
            waitTerminal(store, id);
    };

    const auto bodyFor = [](int n) {
        return (n % 7 == 6 ? "fail-" : "req-") + std::to_string(n);
    };

    std::mt19937 rng(seed);
    int next_id = 0;
    for (int op = 0; op < 200; ++op) {
        const std::uint32_t pick = rng() % 10;
        if (pick < 5 || submitted_ids.empty()) {
            // Fresh submission; every 7th request fails, so both
            // terminal states appear in the comparison.
            const std::string id = "job-" + std::to_string(next_id);
            store.submit("client-" + std::to_string(rng() % 3), id,
                         makeRequest(bodyFor(next_id)));
            submitted_ids.push_back(id);
            ++next_id;
        } else if (pick < 7) {
            // Duplicate submission of a (possibly evicted) id: the
            // canonical key matches the original, so this either
            // attaches or resurrects deterministically.
            const std::size_t n = rng() % submitted_ids.size();
            store.submit("client-" + std::to_string(rng() % 3),
                         submitted_ids[n],
                         makeRequest(bodyFor(static_cast<int>(n))));
        } else if (pick < 9) {
            // Poll exercises the state machine; mid-flight states
            // are racy by design, so the result is not recorded.
            store.poll(submitted_ids[rng() % submitted_ids.size()]);
        } else {
            // Cancel only after a drain: the target is terminal (or
            // evicted), so the outcome is script-determined.
            drain();
            store.cancel(
                submitted_ids[rng() % submitted_ids.size()]);
        }
        // Drain often enough that a batch can never submit more
        // jobs than pre-batch terminal residents + free capacity:
        // every eviction then deterministically hits a PRE-batch
        // terminal (lowest seq), never a racing same-batch job.
        if (op % 6 == 5)
            drain();
    }
    drain();

    ScriptResult result;
    result.list = store.listJson();
    for (const std::string &id : submitted_ids) {
        const JobReply reply = store.poll(id);
        if (reply.status != 404)
            result.terminal[id] = {reply.status, reply.body};
    }
    result.evicted = events["evicted"];
    result.submitted = events["submitted"];
    result.resubmitted = events["resubmitted"];
    result.completed = events["completed"];
    result.failed = events["failed"];
    return result;
}

TEST(Jobs, DeterministicAcrossThreadCounts)
{
    for (const std::uint32_t seed : {11u, 29u}) {
        const ScriptResult one = runJobScript(1, seed);
        const ScriptResult four = runJobScript(4, seed);
        EXPECT_TRUE(one == four)
            << "seed " << seed << " diverged:\n 1-thread: "
            << one.list << "\n 4-thread: " << four.list;
        EXPECT_GT(one.evicted, 0u) << "script never hit capacity";
    }
}

TEST(Jobs, InlineExecutionWithZeroPoolWorkers)
{
    // A zero-worker pool runs submitted tasks inline on the caller:
    // the store must dispatch without deadlocking and deliver the
    // same bodies (this is also the drain path for late tasks).
    ThreadPool pool(0);
    JobStore store(&pool, echoExecutor, 8, 0, 1);
    EXPECT_EQ(store.submit("a", "j1", makeRequest("x")).status, 202);
    EXPECT_EQ(store.poll("j1").status, 200);
    EXPECT_EQ(store.poll("j1").body, "{\"echo\":\"x\"}");
}

} // namespace
} // namespace serve
} // namespace maestro
