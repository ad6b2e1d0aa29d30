#include "src/serve/jobs.hh"

#include <algorithm>
#include <vector>

#include "src/common/error.hh"
#include "src/common/json.hh"
#include "src/serve/fleet.hh"
#include "src/serve/handlers.hh"

namespace maestro
{
namespace serve
{

JobStore::JobStore(ThreadPool *pool, Executor executor,
                   std::size_t capacity,
                   std::size_t per_client_active,
                   std::size_t max_running,
                   std::map<std::string, std::uint32_t> weights)
    : pool_(pool), executor_(std::move(executor)),
      capacity_(std::max<std::size_t>(1, capacity)),
      per_client_active_(per_client_active),
      max_running_(std::max<std::size_t>(1, max_running)),
      weights_(std::move(weights))
{
    panicIf(pool_ == nullptr, "job store needs a worker pool");
    panicIf(!executor_, "job store needs an executor");
}

const char *
JobStore::stateName(State s)
{
    switch (s) {
      case State::Queued:
        return "queued";
      case State::Running:
        return "running";
      case State::Done:
        return "done";
      case State::Failed:
        return "failed";
      case State::Cancelled:
        return "cancelled";
    }
    return "unknown";
}

std::string
JobStore::statusBody(const std::string &id, const char *state)
{
    JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("state").value(state);
    w.endObject();
    return w.str();
}

void
JobStore::setObservers(EventObserver events, GaugeObserver gauges)
{
    std::lock_guard<std::mutex> lock(mutex_);
    event_observer_ = std::move(events);
    gauge_observer_ = std::move(gauges);
}

void
JobStore::emitEventLocked(const Job &job, std::string_view event,
                          int status, bool has_queue_wait,
                          std::uint64_t queue_wait_us, bool has_run,
                          std::uint64_t run_us) const
{
    if (!event_observer_)
        return;
    obs::JobEvent info;
    info.event = event;
    info.id = job.id;
    info.client = job.client;
    info.endpoint = job.request.path;
    if (!info.endpoint.empty() && info.endpoint.front() == '/')
        info.endpoint.remove_prefix(1);
    info.trace = job.trace_id;
    info.status = status;
    info.has_queue_wait = has_queue_wait;
    info.queue_wait_us = queue_wait_us;
    info.has_run = has_run;
    info.run_us = run_us;
    event_observer_(info);
}

void
JobStore::notifyGaugesLocked() const
{
    if (!gauge_observer_)
        return;
    const std::uint64_t oldest_tick =
        queued_by_seq_.empty() ? 0 : queued_by_seq_.begin()->second;
    gauge_observer_(queued_by_seq_.size(), running_, jobs_.size(),
                    oldest_tick);
}

JobReply
JobStore::submit(const std::string &client, const std::string &id,
                 JobRequest request, const std::string &trace_id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_)
        return {503, errorJson("job store is draining"), true, ""};

    const auto it = jobs_.find(id);
    if (it != jobs_.end()) {
        // Content-addressed ids make resubmission idempotent; a
        // canonical-key mismatch means a hash collision, which must
        // surface as an error, never as someone else's result.
        if (it->second.request.canonical != request.canonical)
            return {500, errorJson("job id collision; vary the "
                                   "request and retry"),
                    false, ""};
        emitEventLocked(it->second, "resubmitted");
        return {200, statusBody(id, stateName(it->second.state)),
                false, it->second.trace_id};
    }

    // A turned-away submit still reports who asked, and why.
    const auto reject = [&](const char *event) {
        Job rejected;
        rejected.id = id;
        rejected.client = client;
        rejected.trace_id = trace_id;
        rejected.request = std::move(request);
        emitEventLocked(rejected, event);
    };
    if (per_client_active_ > 0) {
        const auto ac = active_.find(client);
        if (ac != active_.end() && ac->second >= per_client_active_) {
            reject("rejected_client");
            return {429,
                    errorJson(msg("client '", client, "' has ",
                                  ac->second, " active jobs (limit ",
                                  per_client_active_, ")")),
                    true, ""};
        }
    }

    while (jobs_.size() >= capacity_) {
        if (terminal_by_seq_.empty()) {
            reject("rejected_capacity");
            return {503,
                    errorJson(msg("job store full (", jobs_.size(),
                                  " active jobs)")),
                    true, ""};
        }
        // FIFO eviction of completed jobs: oldest SUBMITTED terminal
        // job first — submission order is deterministic where
        // completion order is not.
        const auto victim = terminal_by_seq_.begin();
        const auto vit = jobs_.find(victim->second);
        if (vit != jobs_.end()) {
            emitEventLocked(vit->second, "evicted",
                            vit->second.status);
            jobs_.erase(vit);
        }
        terminal_by_seq_.erase(victim);
    }

    Job job;
    job.id = id;
    job.client = client;
    job.trace_id = trace_id;
    job.request = std::move(request);
    job.seq = next_seq_++;
    job.submitted_tick = fleet::steadyTickMicros();
    const auto inserted = jobs_.emplace(id, std::move(job)).first;
    queued_by_seq_[inserted->second.seq] =
        inserted->second.submitted_tick;

    ClientQueue &queue = queues_[client];
    if (queue.ids.empty() && queue.credit == 0) {
        const auto w = weights_.find(client);
        queue.weight =
            w == weights_.end() ? 1 : std::max<std::uint32_t>(1,
                                                              w->second);
    }
    queue.ids.push_back(id);
    ++active_[client];
    emitEventLocked(inserted->second, "submitted");
    notifyGaugesLocked();

    pumpLocked(lock);
    return {202, statusBody(id, "queued"), false, trace_id};
}

JobReply
JobStore::poll(const std::string &id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return {404, errorJson(msg("no such job '", id, "'")), false};
    const Job &job = it->second;
    switch (job.state) {
      case State::Queued:
      case State::Running:
        return {200, statusBody(id, stateName(job.state)), true,
                job.trace_id};
      case State::Cancelled:
        return {200, statusBody(id, "cancelled"), false,
                job.trace_id};
      case State::Done:
      case State::Failed:
        // The stored response VERBATIM: status and bytes exactly as
        // the synchronous endpoint produced them. The submitter's
        // trace rides the X-Job-Trace-Id header, never the body.
        return {job.status, job.body, false, job.trace_id};
    }
    return {500, errorJson("corrupt job state"), false, ""};
}

JobReply
JobStore::cancel(const std::string &id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end())
        return {404, errorJson(msg("no such job '", id, "'")), false};
    Job &job = it->second;
    if (job.state == State::Running)
        return {409,
                errorJson(msg("job '", id,
                              "' is running; cannot cancel")),
                false, job.trace_id};
    if (isTerminal(job.state)) {
        const std::string trace = job.trace_id;
        terminal_by_seq_.erase(job.seq);
        jobs_.erase(it);
        notifyGaugesLocked();
        return {200, statusBody(id, "removed"), false, trace};
    }
    // Queued: pull it out of its client's queue, then retire it.
    const auto qit = queues_.find(job.client);
    if (qit != queues_.end()) {
        auto &ids = qit->second.ids;
        ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
        if (ids.empty())
            queues_.erase(qit);
    }
    finishLocked(job, State::Cancelled, 0, "");
    return {200, statusBody(id, "cancelled"), false, job.trace_id};
}

std::string
JobStore::nextJobLocked()
{
    // Deficit-style weighted round-robin: visit client keys in
    // sorted cyclic order; each visit grants `weight` dequeues of
    // credit before the cursor advances past the client.
    auto it = queues_.lower_bound(cursor_);
    for (int pass = 0; pass < 2; ++pass) {
        for (; it != queues_.end(); ++it)
            if (!it->second.ids.empty())
                goto found;
        it = queues_.begin();
    }
    return "";

found:
    ClientQueue &queue = it->second;
    if (queue.credit == 0)
        queue.credit = queue.weight;
    std::string id = std::move(queue.ids.front());
    queue.ids.pop_front();
    --queue.credit;
    if (queue.ids.empty()) {
        queue.credit = 0;
        const std::string name = it->first;
        queues_.erase(it);
        cursor_ = name + '\0'; // strictly after the erased key
    } else if (queue.credit == 0) {
        cursor_ = it->first + '\0';
    } else {
        cursor_ = it->first; // revisit while credit remains
    }
    return id;
}

void
JobStore::pumpLocked(std::unique_lock<std::mutex> &lock)
{
    // Mark dispatchable jobs Running under the lock, but hand them
    // to the pool unlocked: with zero pool workers submit() runs the
    // task inline, and runJob() re-acquires the mutex.
    std::vector<std::string> dispatch;
    while (!stopping_ && running_ < max_running_) {
        std::string id = nextJobLocked();
        if (id.empty())
            break;
        Job &job = jobs_.at(id);
        job.state = State::Running;
        job.started_tick = fleet::steadyTickMicros();
        queued_by_seq_.erase(job.seq);
        ++running_;
        emitEventLocked(job, "started", 0, true,
                        job.started_tick - job.submitted_tick);
        dispatch.push_back(std::move(id));
    }
    if (dispatch.empty())
        return;
    notifyGaugesLocked();
    lock.unlock();
    for (std::string &id : dispatch)
        pool_->submit(
            [this, id = std::move(id)] { runJob(id); });
    lock.lock();
}

void
JobStore::finishLocked(Job &job, State state, int status,
                       std::string body)
{
    const State from = job.state;
    job.state = state;
    job.status = status;
    job.body = std::move(body);
    terminal_by_seq_[job.seq] = job.id;
    if (from == State::Queued)
        queued_by_seq_.erase(job.seq);
    else if (from == State::Running)
        --running_;
    const auto ac = active_.find(job.client);
    if (ac != active_.end() && --ac->second == 0)
        active_.erase(ac);
    if (state == State::Cancelled)
        emitEventLocked(job, "cancelled");
    else
        emitEventLocked(job,
                        state == State::Done ? "completed" : "failed",
                        status, false, 0, true,
                        fleet::steadyTickMicros() - job.started_tick);
    notifyGaugesLocked();
    if (running_ == 0)
        idle_cv_.notify_all();
}

void
JobStore::runJob(const std::string &id)
{
    JobRequest request;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        request = jobs_.at(id).request;
    }
    JobOutcome outcome;
    try {
        outcome = executor_(request);
    } catch (const std::exception &e) {
        outcome = {500, errorJson(e.what())};
    }
    std::unique_lock<std::mutex> lock(mutex_);
    Job &job = jobs_.at(id);
    const bool ok = outcome.first >= 200 && outcome.first < 300;
    finishLocked(job, ok ? State::Done : State::Failed,
                 outcome.first, std::move(outcome.second));
    pumpLocked(lock); // an execution slot just freed up
}

std::string
JobStore::listJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::uint64_t, const Job *>> ordered;
    ordered.reserve(jobs_.size());
    for (const auto &[id, job] : jobs_)
        ordered.emplace_back(job.seq, &job);
    std::sort(ordered.begin(), ordered.end());

    JsonWriter w;
    w.beginObject();
    w.key("count").value(static_cast<std::uint64_t>(ordered.size()));
    w.key("jobs").beginArray();
    for (const auto &[seq, job] : ordered) {
        w.beginObject();
        w.key("id").value(job->id);
        w.key("state").value(stateName(job->state));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

void
JobStore::shutdown()
{
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
    // Cancel everything still queued; keep terminal results around
    // so clients polling during connection linger still get them.
    for (auto &[client, queue] : queues_)
        for (const std::string &id : queue.ids)
            finishLocked(jobs_.at(id), State::Cancelled, 0, "");
    queues_.clear();
    idle_cv_.wait(lock, [this] { return running_ == 0; });
}

} // namespace serve
} // namespace maestro
