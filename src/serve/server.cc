#include "src/serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <future>
#include <iterator>
#include <optional>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/common/error.hh"
#include "src/common/hash.hh"
#include "src/obs/metrics.hh"
#include "src/obs/obs.hh"

namespace maestro
{
namespace serve
{

namespace
{

/** Closes a file descriptor if open and forgets it. */
void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/** Outcome of one sync request executed on the pool. */
struct SyncState
{
    std::atomic<bool> cancelled{false};
    std::promise<std::pair<int, std::string>> promise;
};

/** The span site of a request no endpoint row serves. */
constexpr obs::Site kUnroutedSite{"http.other", "serve", nullptr};

} // namespace

bool
sendAll(int fd, std::string_view data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

int
bindTcp(const std::string &host, std::uint16_t port, bool reuse_port,
        int backlog, std::uint16_t &bound_port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    fatalIf(fd < 0, "socket: ", std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (reuse_port)
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw Error(msg("bad bind address '", host, "'"));
    }
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        throw Error(msg("cannot bind ", host, ":", port, ": ",
                        std::strerror(err)));
    }
    if (backlog > 0 && ::listen(fd, backlog) != 0) {
        const int err = errno;
        ::close(fd);
        throw Error(msg("listen: ", std::strerror(err)));
    }

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len);
    bound_port = ntohs(bound.sin_port);
    return fd;
}

JobOutcome
eventsTail(const obs::EventLog &log, const QueryParams &params)
{
    const auto it = params.find("n");
    const std::optional<std::size_t> n =
        it == params.end() ? std::optional<std::size_t>(100)
                           : parseCount(it->second);
    if (!n)
        return {400, errorJson("bad n parameter (want a count)")};
    return {200, log.tailJson(*n)};
}

std::span<const Endpoint, kEndpointCount>
endpoints()
{
    using S = AnalysisServer;
    constexpr EndpointKind kAnalysis = EndpointKind::Analysis;
    constexpr EndpointKind kInline = EndpointKind::Inline;
    static constexpr Endpoint kTable[] = {
        {"analyze", "/analyze", "POST", kAnalysis,
         {"http.analyze", "serve", nullptr}, &S::handleAnalyze},
        {"dse", "/dse", "POST", kAnalysis,
         {"http.dse", "serve", nullptr}, &S::handleDse},
        {"tune", "/tune", "POST", kAnalysis,
         {"http.tune", "serve", nullptr}, &S::handleTune},
        {"simulate", "/simulate", "POST", kAnalysis,
         {"http.simulate", "serve", nullptr}, &S::handleSimulate},
        {"crossval", "/crossval", "POST", kAnalysis,
         {"http.crossval", "serve", nullptr}, &S::handleCrossval},
        {"jobs", "/jobs", nullptr, kInline,
         {"http.jobs", "serve", nullptr}, &S::handleJobs},
        {"healthz", "/healthz", "GET", kInline,
         {"http.healthz", "serve", nullptr}, &S::handleHealthz},
        {"stats", "/stats", "GET", kInline,
         {"http.stats", "serve", nullptr}, &S::handleStats},
        {"metrics", "/metrics", "GET", kInline,
         {"http.metrics", "serve", nullptr}, &S::handleMetrics},
        {"events", "/events", "GET", kInline,
         {"http.events", "serve", nullptr}, &S::handleEvents},
    };
    static_assert(std::size(kTable) == kEndpointCount);
    return kTable;
}

const Endpoint *
findEndpoint(std::string_view path)
{
    for (const Endpoint &e : endpoints()) {
        const std::string_view own = e.path;
        if (path == own ||
            (e.method == nullptr && path.starts_with(own) &&
             path.size() > own.size() && path[own.size()] == '/'))
            return &e;
    }
    return nullptr;
}

const Endpoint *
findAnalysis(std::string_view name)
{
    for (const Endpoint &e : endpoints())
        if (e.kind == EndpointKind::Analysis && name == e.name)
            return &e;
    return nullptr;
}

std::size_t
endpointIndex(const Endpoint *e)
{
    return e == nullptr
               ? kEndpointCount
               : static_cast<std::size_t>(e - endpoints().data());
}

AnalysisServer::AnalysisServer(ServeContext context,
                               ServeOptions options)
    : context_(std::move(context)), options_(std::move(options)),
      result_cache_(options_.result_cache_entries,
                    options_.result_cache_bytes),
      admission_(options_.queue_capacity, options_.client_share,
                 options_.client_weights)
{
    panicIf(!context_.pipeline, "server needs a pipeline");
}

AnalysisServer::~AnalysisServer()
{
    requestStop();
    reapConnections(true);
    closeFd(listen_fd_);
    closeFd(wake_pipe_[0]);
    closeFd(wake_pipe_[1]);
}

void
AnalysisServer::start()
{
    if (listen_fd_ >= 0)
        return;
    fatalIf(::pipe(wake_pipe_) != 0, "pipe: ", std::strerror(errno));

    const int fd = bindTcp(options_.host, options_.port,
                           options_.reuse_port, 128, bound_port_);
    listen_fd_ = fd;
    pool_ = std::make_unique<ThreadPool>(options_.worker_threads);
    jobs_ = std::make_unique<JobStore>(
        pool_.get(),
        [this](const JobRequest &request) {
            return evaluateCached(request);
        },
        options_.job_capacity, options_.jobs_per_client,
        std::max<std::size_t>(1, options_.worker_threads),
        options_.client_weights);

    // Fleet telemetry: a `--workers N` supervisor hands us its
    // pre-fork segment + lane; a single-process server creates a
    // private 1-lane segment so both run the identical counting
    // path (and the lanes==1 render stays byte-identical to the
    // pre-fleet exposition).
    if (!options_.shared_metrics) {
        options_.shared_metrics = obs::SharedMetrics::create(1);
        options_.worker_lane = 0;
    }
    fleet::registerSlots(*options_.shared_metrics);
    fleet_ = std::make_unique<fleet::FleetLane>(
        options_.shared_metrics, options_.worker_lane,
        options_.metrics_max_clients);

    obs::EventLogOptions log_options;
    log_options.path = options_.access_log;
    log_options.max_bytes = options_.access_log_max_bytes;
    log_options.ring = options_.events_ring;
    log_options.worker = static_cast<int>(options_.worker_lane);
    events_ = std::make_unique<obs::EventLog>(log_options);
    events_->logWorker("started", static_cast<int>(::getpid()));

    jobs_->setObservers(
        [this](const obs::JobEvent &e) {
            // Called with the job-store mutex held: metric bumps and
            // one log append only, no store re-entry.
            fleet_->recordJobEvent(e);
            events_->logJob(e);
        },
        [this](std::size_t queued, std::size_t running,
               std::size_t resident, std::uint64_t oldest_tick) {
            fleet_->setJobGauges(queued, running, resident,
                                 oldest_tick);
        });

    start_time_ = std::chrono::steady_clock::now();
    if (options_.enable_timing)
        obs::enableMode(obs::kTiming);
}

void
AnalysisServer::requestStop()
{
    stopping_.store(true, std::memory_order_release);
    if (wake_pipe_[1] >= 0) {
        const char byte = 'x';
        // Best-effort wake; the accept loop also polls the flag.
        [[maybe_unused]] const ssize_t n =
            ::write(wake_pipe_[1], &byte, 1);
    }
}

void
AnalysisServer::reapConnections(bool all)
{
    std::vector<std::unique_ptr<Connection>> finished;
    {
        std::lock_guard<std::mutex> lock(connections_mutex_);
        auto it = connections_.begin();
        while (it != connections_.end()) {
            if (all || (*it)->done.load(std::memory_order_acquire)) {
                finished.push_back(std::move(*it));
                it = connections_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto &conn : finished)
        if (conn->thread.joinable())
            conn->thread.join();
}

void
AnalysisServer::run()
{
    start();
    while (!stopping_.load(std::memory_order_acquire)) {
        pollfd fds[2];
        fds[0] = {listen_fd_, POLLIN, 0};
        fds[1] = {wake_pipe_[0], POLLIN, 0};
        const int rc = ::poll(fds, 2, 500);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        reapConnections(false);
        if (rc == 0 || !(fds[0].revents & POLLIN))
            continue;
        sockaddr_in peer_addr{};
        socklen_t peer_len = sizeof(peer_addr);
        const int client = ::accept(
            listen_fd_, reinterpret_cast<sockaddr *>(&peer_addr),
            &peer_len);
        if (client < 0)
            continue;
        // The default client key for quotas/fairness: the peer IP
        // (an X-Client-Id header overrides it per request).
        char peer_buf[INET_ADDRSTRLEN] = "unknown";
        ::inet_ntop(AF_INET, &peer_addr.sin_addr, peer_buf,
                    sizeof(peer_buf));
        std::string peer(peer_buf);

        std::size_t active = 0;
        {
            std::lock_guard<std::mutex> lock(connections_mutex_);
            active = connections_.size();
        }
        if (active >= options_.max_connections) {
            sendAll(client,
                    serializeResponse(
                        503, errorJson("too many connections"),
                        "application/json", false, {"Retry-After: 1"}));
            ::close(client);
            continue;
        }

        auto conn = std::make_unique<Connection>();
        Connection *slot = conn.get();
        {
            std::lock_guard<std::mutex> lock(connections_mutex_);
            connections_.push_back(std::move(conn));
        }
        slot->thread =
            std::thread([this, client, slot,
                         peer = std::move(peer)]() mutable {
                serveConnection(client, slot, std::move(peer));
            });
    }
    // Graceful drain: stop accepting; open connections get a short
    // linger window for one last request (Connection: close), then
    // queued jobs are cancelled and running work finishes.
    closeFd(listen_fd_);
    reapConnections(true);
    jobs_->shutdown();
    events_->logWorker("exited", static_cast<int>(::getpid()), 0);
}

void
AnalysisServer::serveConnection(int fd, Connection *slot,
                                std::string peer)
{
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    using Clock = std::chrono::steady_clock;
    HttpParser parser(options_.max_header_bytes,
                      options_.max_body_bytes);
    std::string pending; // pipelined bytes beyond the parsed request
    bool keep = true;
    auto last_activity = Clock::now();

    while (keep) {
        // Assemble one request: replay pipelined bytes, then recv.
        if (!pending.empty()) {
            const std::size_t used = parser.feed(pending);
            pending.erase(0, used);
        }
        bool closed = false;
        bool read_expired = false;
        // Slow-loris defense: once the first byte of a request has
        // arrived, the whole request must arrive within the request
        // deadline — a stalled sender gets 408 and frees its slot.
        std::optional<Clock::time_point> read_deadline;
        // Drain linger: an idle keep-alive connection observed
        // during a drain gets drain_linger_ms to start one last
        // request before the server closes it.
        std::optional<Clock::time_point> drain_seen;
        while (parser.state() == HttpParser::State::Headers ||
               parser.state() == HttpParser::State::Body) {
            const auto now = Clock::now();
            if (parser.started() && !read_deadline)
                read_deadline =
                    now +
                    std::chrono::milliseconds(options_.deadline_ms);
            if (read_deadline && now > *read_deadline) {
                read_expired = true;
                break;
            }
            if (!parser.started() &&
                stopping_.load(std::memory_order_acquire)) {
                if (!drain_seen)
                    drain_seen = now;
                if (now - *drain_seen >
                    std::chrono::milliseconds(
                        options_.drain_linger_ms)) {
                    closed = true;
                    break;
                }
            }
            pollfd pfd{fd, POLLIN, 0};
            const int rc = ::poll(&pfd, 1, 50);
            if (rc < 0 && errno != EINTR) {
                closed = true;
                break;
            }
            if (rc <= 0) {
                const auto idle = Clock::now() - last_activity;
                if (!parser.started() &&
                    idle > std::chrono::milliseconds(
                               options_.idle_timeout_ms)) {
                    closed = true;
                    break;
                }
                continue;
            }
            char buf[16 * 1024];
            const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n <= 0) {
                closed = true;
                break;
            }
            last_activity = Clock::now();
            const std::string_view chunk(buf,
                                         static_cast<std::size_t>(n));
            const std::size_t used = parser.feed(chunk);
            pending.append(chunk.substr(used));
        }

        // Answered before routing: counted under endpoint "other".
        if (read_expired || parser.state() == HttpParser::State::Error) {
            const int status = read_expired ? 408 : parser.errorStatus();
            fleet_->countRequest(nullptr);
            fleet_->countStatus(status);
            obs::RequestEvent ev;
            ev.status = status;
            ev.client = peer;
            ev.reject = read_expired ? "read_timeout" : "parse_error";
            events_->logRequest(ev);
            sendAll(fd, serializeResponse(
                            status,
                            errorJson(read_expired
                                          ? msg("request not received "
                                                "within ",
                                                options_.deadline_ms,
                                                " ms")
                                          : parser.errorDetail()),
                            "application/json", false));
            break;
        }
        if (closed || parser.state() != HttpParser::State::Complete)
            break;

        const HttpRequest &request = parser.request();
        const std::string path = request.path();
        const Endpoint *endpoint = findEndpoint(path);

        // The trace id is the client-sent x-trace-id echoed back,
        // else a per-server sequence number — never wall clock, so
        // the header is deterministic and present whether or not
        // tracing is enabled (response bytes must not depend on the
        // tracer state).
        const std::uint64_t trace_seq =
            trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
        std::string trace_id;
        const auto trace_it = request.headers.find("x-trace-id");
        if (trace_it != request.headers.end() &&
            !trace_it->second.empty())
            trace_id = trace_it->second;
        else
            trace_id = "maestro-" + std::to_string(trace_seq);

        const auto t0 = std::chrono::steady_clock::now();
        Reply reply;
        {
            obs::ScopedSpan span(endpoint ? endpoint->site
                                          : kUnroutedSite);
            span.arg("trace_seq", trace_seq);
            reply = dispatch(request, endpoint, path, peer, trace_id);
        }
        const auto elapsed =
            std::chrono::steady_clock::now() - t0;
        const std::uint64_t us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                elapsed)
                .count());
        fleet_->recordResponse(endpoint, reply.cache, reply.status, us);
        obs::RequestEvent ev;
        ev.method = request.method;
        ev.endpoint = endpoint ? endpoint->name : "other";
        ev.status = reply.status;
        ev.latency_us = us;
        ev.client = reply.client.empty() ? peer : reply.client;
        ev.trace = trace_id;
        ev.cache = reply.cache;
        ev.reject = reply.reject;
        events_->logRequest(ev);
        reply.extra_headers.push_back("X-Trace-Id: " + trace_id);

        keep = request.keepAlive() &&
               !stopping_.load(std::memory_order_acquire);
        if (!sendAll(fd, serializeResponse(reply.status, reply.body,
                                           reply.content_type, keep,
                                           reply.extra_headers)))
            break;
        parser.reset();
        last_activity = std::chrono::steady_clock::now();
    }

    ::close(fd);
    slot->done.store(true, std::memory_order_release);
}

Reply
AnalysisServer::dispatch(const HttpRequest &request,
                         const Endpoint *endpoint, std::string_view path,
                         const std::string &peer,
                         const std::string &trace_id)
{
    // The client key for quotas and fair dequeue: an explicit
    // X-Client-Id header wins, else the peer address.
    std::string client = peer;
    const auto id_it = request.headers.find("x-client-id");
    if (id_it != request.headers.end() && !id_it->second.empty())
        client = id_it->second;

    fleet_->countRequest(endpoint);
    fleet_->clientRequest(client);
    Reply reply;
    if (endpoint == nullptr) {
        reply = {404, errorJson(msg("no such endpoint '", path, "'")),
                 {}};
    } else if (endpoint->method != nullptr &&
               request.method != endpoint->method) {
        reply = {405,
                 errorJson(msg("use ", endpoint->method, " ",
                               endpoint->path)),
                 {}};
    } else {
        const QueryParams params = request.query();
        const Call call{request.method, path,   params,
                        request.body,   client, trace_id};
        reply = endpoint->kind == EndpointKind::Analysis
                    ? dispatchAnalysis(*endpoint, call)
                    : (this->*endpoint->handler)(call);
    }
    // 429s from ANY route (sync admission and job quotas alike)
    // count against the client's throttle series.
    if (reply.status == 429)
        fleet_->clientThrottled(client);
    reply.client = std::move(client);
    return reply;
}

RequestInputs
AnalysisServer::resolve(const Call &call) const
{
    return resolveRequest(call.body, call.params,
                          context_.default_config);
}

Reply
AnalysisServer::handleAnalyze(const Call &call)
{
    return {200,
            analyzeJson(resolve(call), context_.pipeline,
                        context_.energy),
            {}};
}

Reply
AnalysisServer::handleDse(const Call &call)
{
    return {200,
            dseJson(resolve(call), call.params, context_.pipeline,
                    context_.energy),
            {}};
}

Reply
AnalysisServer::handleTune(const Call &call)
{
    return {200,
            tuneJson(resolve(call), call.params, context_.pipeline,
                     context_.energy, options_.worker_threads),
            {}};
}

Reply
AnalysisServer::handleSimulate(const Call &call)
{
    return {200,
            simulateJson(resolve(call), call.params, context_.pipeline,
                         context_.energy),
            {}};
}

Reply
AnalysisServer::handleCrossval(const Call &call)
{
    return {200, crossvalRunJson(call.params, options_.worker_threads),
            {}};
}

Reply
AnalysisServer::handleHealthz(const Call &)
{
    // 503 during a graceful drain so load balancers stop routing to
    // a stopping worker before the listener closes.
    if (stopping_.load(std::memory_order_acquire))
        return {503, healthzJson(true), {"Retry-After: 1"}};
    return {200, healthzJson(), {}};
}

fleet::ComponentStats
AnalysisServer::componentStats() const
{
    fleet::ComponentStats c;
    c.uptime_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_time_)
            .count());
    c.queue_capacity = admission_.capacity();
    c.peak_depth = admission_.peakDepth();
    c.client_share = admission_.clientShare();
    c.cache_inserted = result_cache_.stats().inserted;
    c.job_capacity = jobs_->stats().capacity;
    c.pipeline = context_.pipeline->stats();
    c.events = events_->stats();
    return c;
}

Reply
AnalysisServer::handleStats(const Call &)
{
    return {200, fleet_->statsJson(componentStats()), {}};
}

Reply
AnalysisServer::handleMetrics(const Call &)
{
    const fleet::ComponentStats local = componentStats();
    Reply reply{200, fleet::metricsText(fleet_->segment(), &local), {}};
    // Process-wide instruments (pipeline stage-miss latencies, pool
    // queue-wait, DSE sweep counters, ...) share the document.
    obs::Registry::global().render(reply.body);
    reply.content_type = "text/plain; version=0.0.4; charset=utf-8";
    return reply;
}

Reply
AnalysisServer::handleEvents(const Call &call)
{
    auto [status, body] = eventsTail(*events_, call.params);
    return {status, std::move(body), {}};
}

Reply
AnalysisServer::handleJobs(const Call &call)
{
    if (call.path == "/jobs") {
        if (call.method != "GET")
            return {405,
                    errorJson("use GET /jobs, POST /jobs/<endpoint>, "
                              "or GET/DELETE /jobs/<id>"),
                    {}};
        return {200, jobs_->listJson(), {}};
    }

    // The submitter's trace id rides every job reply as an
    // X-Job-Trace-Id header — bodies stay byte-identical, but a poll
    // from another connection (or worker) still correlates back to
    // the submitting request's X-Trace-Id.
    const auto annotate = [](const JobReply &r) {
        Reply reply{r.status, r.body, {}};
        if (r.retry_after)
            reply.extra_headers.push_back("Retry-After: 1");
        if (!r.trace_id.empty())
            reply.extra_headers.push_back("X-Job-Trace-Id: " +
                                          r.trace_id);
        return reply;
    };

    const std::string tail(call.path.substr(6));
    if (call.method == "POST") {
        const Endpoint *target = findAnalysis(tail);
        if (target == nullptr) {
            std::string names;
            for (const Endpoint &e : endpoints())
                if (e.kind == EndpointKind::Analysis)
                    names += (names.empty() ? "" : "|") +
                             std::string(e.name);
            return {404,
                    errorJson(msg("no such job endpoint '", tail,
                                  "'; POST /jobs/{", names, "}")),
                    {}};
        }
        JobRequest job;
        job.path = target->path;
        job.params = call.params;
        job.body = call.body;
        job.canonical = ResultCache::canonicalKey(job.path, job.params,
                                                  job.body);
        job.client = call.client;
        // Content-addressed id: identical requests share one job.
        const std::string id = "j" + hashHex(hashBytes(job.canonical));
        return annotate(
            jobs_->submit(call.client, id, std::move(job), call.trace_id));
    }
    if (call.method == "GET")
        return annotate(jobs_->poll(tail));
    if (call.method == "DELETE")
        return annotate(jobs_->cancel(tail));
    return {405, errorJson("use POST, GET, or DELETE under /jobs"),
            {}};
}

JobOutcome
AnalysisServer::evaluateCached(const JobRequest &request)
{
    if (const auto hit = result_cache_.get(request.canonical)) {
        fleet_->countCacheHit(request.client, hit->size());
        return {200, *hit};
    }
    fleet_->countCacheMiss();
    return evaluateAndStore(*findEndpoint(request.path), request);
}

JobOutcome
AnalysisServer::evaluateAndStore(const Endpoint &endpoint,
                                 const JobRequest &request)
{
    JobOutcome outcome;
    try {
        const std::string no_trace;
        const Call call{"POST",       request.path,   request.params,
                        request.body, request.client, no_trace};
        Reply reply = (this->*endpoint.handler)(call);
        outcome = {reply.status, std::move(reply.body)};
    } catch (const Error &e) {
        return {400, errorJson(e.what())};
    } catch (const std::exception &e) {
        return {500, errorJson(e.what())};
    }
    if (outcome.first != 200)
        return outcome;
    fleet_->addCacheEvictions(result_cache_.put(
        request.canonical,
        std::make_shared<const std::string>(outcome.second)));
    std::lock_guard<std::mutex> lock(gauge_mutex_);
    const ResultCacheStats cs = result_cache_.stats();
    fleet_->setCacheGauges(cs.entries, cs.bytes);
    return outcome;
}

void
AnalysisServer::publishActiveClients()
{
    std::lock_guard<std::mutex> lock(gauge_mutex_);
    fleet_->setActiveClients(
        static_cast<std::int64_t>(admission_.activeClients()));
}

Reply
AnalysisServer::dispatchAnalysis(const Endpoint &endpoint,
                                 const Call &call)
{
    const std::string canonical =
        ResultCache::canonicalKey(endpoint.path, call.params, call.body);

    // A resident result costs no evaluation slot: serve it inline,
    // bypassing admission (hits are the cheap, common case the
    // cache exists for). Bodies are byte-identical either way; only
    // the X-Result-Cache header tells the paths apart.
    if (const auto hit = result_cache_.get(canonical)) {
        fleet_->countCacheHit(call.client, hit->size());
        Reply reply{200, *hit, {"X-Result-Cache: hit"}};
        reply.cache = "hit";
        return reply;
    }
    // The worker below evaluates WITHOUT a second probe, so each
    // logical miss counts once.
    fleet_->countCacheMiss();

    switch (admission_.admit(call.client)) {
      case AdmissionController::Admit::FullClient: {
        fleet_->countClientRejected();
        Reply reply{429,
                    errorJson(msg("client '", call.client,
                                  "' is over its request budget, "
                                  "retry later")),
                    {"Retry-After: 1"}};
        reply.reject = "client_budget";
        return reply;
      }
      case AdmissionController::Admit::FullGlobal: {
        fleet_->countQueueRejected();
        Reply reply{503,
                    errorJson("request queue full, retry later"),
                    {"Retry-After: 1"}};
        reply.reject = "queue";
        return reply;
      }
      case AdmissionController::Admit::Ok:
        break;
    }

    const std::uint64_t admit_tick = fleet::steadyTickMicros();
    fleet_->addQueueDepth(1);
    fleet_->clientInflight(call.client, 1);
    publishActiveClients();

    // The state owns everything the worker reads: the connection
    // thread may abandon the future on deadline expiry while the
    // worker is still evaluating.
    auto state = std::make_shared<SyncState>();
    auto future = state->promise.get_future();
    JobRequest job;
    job.path = endpoint.path;
    job.params = call.params;
    job.body = call.body;
    job.canonical = canonical;
    job.client = call.client;

    pool_->submit([this, state, job = std::move(job), ep = &endpoint,
                   admit_tick] {
        const auto settle = [this, &job] {
            admission_.release(job.client);
            fleet_->addQueueDepth(-1);
            fleet_->clientInflight(job.client, -1);
            publishActiveClients();
        };
        if (state->cancelled.load(std::memory_order_acquire)) {
            // Expired while queued: skip the evaluation entirely.
            settle();
            return;
        }
        const std::uint64_t start_tick = fleet::steadyTickMicros();
        fleet_->recordQueueWait(*ep, start_tick - admit_tick);
        JobOutcome outcome = evaluateAndStore(*ep, job);
        fleet_->recordRun(*ep, fleet::steadyTickMicros() - start_tick);
        settle();
        state->promise.set_value(std::move(outcome));
    });

    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.deadline_ms);
    if (future.wait_until(deadline) != std::future_status::ready) {
        state->cancelled.store(true, std::memory_order_release);
        return {408,
                errorJson(msg("deadline of ", options_.deadline_ms,
                              " ms expired")),
                {}};
    }
    auto [status, json] = future.get();
    Reply reply{status, std::move(json), {"X-Result-Cache: miss"}};
    reply.cache = "miss";
    return reply;
}

} // namespace serve
} // namespace maestro
