#include "src/serve/workers.hh"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/error.hh"
#include "src/common/json.hh"
#include "src/common/version.hh"
#include "src/obs/event_log.hh"
#include "src/obs/shared_metrics.hh"
#include "src/serve/fleet.hh"

namespace maestro
{
namespace serve
{

namespace
{

/**
 * Supervisor signal-forwarding state. Signal handlers may only touch
 * async-signal-safe primitives, so the child pid table is a fixed
 * array of atomics published before the handlers are installed. It
 * holds one pid per metrics lane, the fleet's worker cap.
 */
volatile sig_atomic_t g_stop_requested = 0;
volatile std::sig_atomic_t g_worker_count = 0;
volatile pid_t g_worker_pids[obs::SharedMetrics::kMaxLanes] = {};

extern "C" void
forwardStopSignal(int signum)
{
    g_stop_requested = 1;
    for (std::sig_atomic_t i = 0; i < g_worker_count; ++i) {
        const pid_t pid = g_worker_pids[i];
        if (pid > 0)
            ::kill(pid, signum); // async-signal-safe
    }
}

/** The process's running server, for its drain handler. */
AnalysisServer *g_server = nullptr;

extern "C" void
stopServer(int)
{
    if (g_server)
        g_server->requestStop(); // async-signal-safe
}

/**
 * The supervisor's status listener: a single thread answering GET
 * /healthz, /metrics, /stats, and /events with Connection: close.
 * It reads only the shared segment and the supervisor's own event
 * log, so the fleet view stays reachable even when every worker
 * connection slot is saturated — and a scrape here costs no worker
 * any capacity.
 */
class StatusServer
{
  public:
    StatusServer(const std::string &host, std::uint16_t port,
                 std::shared_ptr<obs::SharedMetrics> segment,
                 const obs::EventLog *events, std::size_t workers,
                 std::uint16_t serve_port)
        : segment_(std::move(segment)), events_(events),
          workers_(workers), serve_port_(serve_port)
    {
        listen_fd_ = bindTcp(host, port, false, 16, bound_port_);
        fatalIf(::pipe(wake_pipe_) != 0,
                "pipe: ", std::strerror(errno));
        thread_ = std::thread([this] { loop(); });
    }

    ~StatusServer()
    {
        stop_.store(true, std::memory_order_release);
        const char byte = 'x';
        [[maybe_unused]] const ssize_t n =
            ::write(wake_pipe_[1], &byte, 1);
        thread_.join();
        ::close(wake_pipe_[0]);
        ::close(wake_pipe_[1]);
        ::close(listen_fd_);
    }

    StatusServer(const StatusServer &) = delete;
    StatusServer &operator=(const StatusServer &) = delete;

    std::uint16_t port() const { return bound_port_; }

  private:
    void
    loop()
    {
        while (!stop_.load(std::memory_order_acquire)) {
            pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                             {wake_pipe_[0], POLLIN, 0}};
            if (::poll(fds, 2, -1) < 0) {
                if (errno == EINTR)
                    continue;
                break;
            }
            if (fds[1].revents != 0)
                break;
            if ((fds[0].revents & POLLIN) == 0)
                continue;
            const int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0)
                continue;
            serveOne(fd);
            ::close(fd);
        }
    }

    void
    serveOne(int fd)
    {
        timeval tv{};
        tv.tv_sec = 2; // slow-sender budget; this is a status port
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        HttpParser parser;
        char buf[4096];
        while (parser.state() == HttpParser::State::Headers ||
               parser.state() == HttpParser::State::Body) {
            const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n <= 0)
                return;
            parser.feed(std::string_view(
                buf, static_cast<std::size_t>(n)));
        }

        int status = 200;
        std::string body;
        std::string content_type = "application/json";
        if (parser.state() == HttpParser::State::Error) {
            status = parser.errorStatus();
            body = errorJson(parser.errorDetail());
        } else {
            respond(parser.request(), status, body, content_type);
        }
        sendAll(fd,
                serializeResponse(status, body, content_type, false));
    }

    void
    respond(const HttpRequest &request, int &status,
            std::string &body, std::string &content_type) const
    {
        const std::string path = request.path();
        if (request.method != "GET") {
            status = 405;
            body = errorJson("the status port is GET-only");
            return;
        }
        if (path == "/healthz") {
            JsonWriter w;
            w.beginObject();
            w.key("status").value("ok");
            w.key("workers").value(
                static_cast<std::uint64_t>(workers_));
            w.key("version").value(kVersion);
            w.endObject();
            body = w.str();
            return;
        }
        if (path == "/metrics") {
            body = fleet::metricsText(*segment_, nullptr);
            content_type =
                "text/plain; version=0.0.4; charset=utf-8";
            return;
        }
        if (path == "/stats") {
            JsonWriter w;
            w.beginObject();
            w.key("workers").value(
                static_cast<std::uint64_t>(workers_));
            w.key("port").value(
                static_cast<std::uint64_t>(serve_port_));
            fleet::writeFleetStats(w, *segment_, 0);
            fleet::writeEventStats(w, events_->stats());
            w.endObject();
            body = w.str();
            return;
        }
        if (path == "/events") {
            std::tie(status, body) = eventsTail(*events_, request.query());
            return;
        }
        status = 404;
        body = errorJson(msg("no such endpoint '", path, "'"));
    }

    std::shared_ptr<obs::SharedMetrics> segment_;
    const obs::EventLog *events_;
    std::size_t workers_;
    std::uint16_t serve_port_;

    int listen_fd_ = -1;
    int wake_pipe_[2] = {-1, -1};
    std::uint16_t bound_port_ = 0;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

} // namespace

void
runServer(const ServeOptions &options, bool worker)
{
    AnalysisServer server(ServeContext{}, options);
    server.start();
    g_server = &server;
    std::signal(SIGTERM, stopServer);
    std::signal(SIGINT, stopServer);
    const int pid = static_cast<int>(::getpid());
    const unsigned port = server.port();
    if (worker) {
        std::fprintf(stderr,
                     "maestro serve: worker %d listening on "
                     "http://%s:%u\n",
                     pid, options.host.c_str(), port);
    } else {
        std::fprintf(stderr,
                     "maestro serve: listening on http://%s:%u (%zu "
                     "workers, queue %zu, deadline %d ms)\n",
                     options.host.c_str(), port, options.worker_threads,
                     options.queue_capacity, options.deadline_ms);
    }
    server.run();
    g_server = nullptr;
    if (worker)
        std::fprintf(stderr, "maestro serve: worker %d drained\n", pid);
    else
        std::fprintf(stderr, "maestro serve: drained, exiting\n");
    std::fflush(stderr);
}

int
openPortPlaceholder(ServeOptions &options)
{
    return bindTcp(options.host, options.port, true, 0, options.port);
}

pid_t
spawnWorker(const ServeOptions &options)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;

    // Worker process: shared-nothing server on the common port.
    // _exit (not exit) on failure so the parent's stdio buffers and
    // atexit handlers never run twice.
    try {
        ServeOptions worker_options = options;
        worker_options.reuse_port = true;
        runServer(worker_options, true);
        ::_exit(0);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "maestro serve: worker %d failed: %s\n",
                     static_cast<int>(::getpid()), e.what());
        std::fflush(stderr);
        ::_exit(1);
    }
}

int
runWorkers(ServeOptions options, std::size_t workers,
           int status_port)
{
    fatalIf(workers < 2, "runWorkers needs at least 2 workers");
    fatalIf(workers > obs::SharedMetrics::kMaxLanes,
            "--workers is capped at ", obs::SharedMetrics::kMaxLanes);

    // Resolve an ephemeral port once so every worker binds the SAME
    // port; the placeholder never listens, so it steals no
    // connections while it pins the port.
    const int placeholder = openPortPlaceholder(options);

    // The fleet's metrics segment: mmap'd BEFORE forking so every
    // worker inherits the same physical pages; worker i records
    // into lane i and any reader sums the lanes.
    options.shared_metrics = obs::SharedMetrics::create(workers);
    fleet::registerSlots(*options.shared_metrics);

    // The supervisor's own event-log handle (worker -1): worker
    // lifecycle lines interleave with the workers' request lines
    // through O_APPEND whole-line writes.
    obs::EventLogOptions log_options;
    log_options.path = options.access_log;
    log_options.max_bytes = options.access_log_max_bytes;
    log_options.ring = options.events_ring;
    log_options.worker = -1;
    obs::EventLog events(log_options);

    g_stop_requested = 0;
    g_worker_count = 0;
    std::vector<pid_t> pids;
    for (std::size_t i = 0; i < workers; ++i) {
        options.worker_lane = i;
        const pid_t pid = spawnWorker(options);
        if (pid < 0) {
            std::fprintf(stderr, "maestro serve: fork: %s\n",
                         std::strerror(errno));
            for (const pid_t child : pids)
                ::kill(child, SIGTERM);
            for (const pid_t child : pids)
                ::waitpid(child, nullptr, 0);
            ::close(placeholder);
            return 1;
        }
        events.logWorker("forked", pid);
        g_worker_pids[i] = pid;
        pids.push_back(pid);
    }
    // Publish the pid table before installing the forwarders: a
    // signal arriving mid-spawn must not read unset slots.
    g_worker_count = static_cast<std::sig_atomic_t>(pids.size());
    std::signal(SIGTERM, forwardStopSignal);
    std::signal(SIGINT, forwardStopSignal);
    ::close(placeholder);
    std::fprintf(stderr,
                 "maestro serve: %zu workers on http://%s:%u "
                 "(SO_REUSEPORT)\n",
                 workers, options.host.c_str(),
                 static_cast<unsigned>(options.port));

    // The fleet-view status listener (when asked for): reads the
    // segment and the supervisor's event ring, never a worker.
    std::unique_ptr<StatusServer> status;
    if (status_port >= 0) {
        try {
            status = std::make_unique<StatusServer>(
                options.host,
                static_cast<std::uint16_t>(status_port),
                options.shared_metrics, &events, workers,
                options.port);
            std::fprintf(
                stderr,
                "maestro serve: status port on http://%s:%u\n",
                options.host.c_str(),
                static_cast<unsigned>(status->port()));
        } catch (const std::exception &e) {
            // A dead status port must not take the fleet down with
            // it: report and tear the group down cleanly.
            std::fprintf(stderr, "maestro serve: status port: %s\n",
                         e.what());
            forwardStopSignal(SIGTERM);
        }
    }

    // Reap workers as they exit. A worker dying WITHOUT a requested
    // stop is an unexpected failure: drain the rest and report it,
    // rather than limping along at partial capacity.
    int exit_code = (status_port >= 0 && !status) ? 1 : 0;
    std::size_t live = pids.size();
    while (live > 0) {
        int wstatus = 0;
        const pid_t pid = ::waitpid(-1, &wstatus, 0);
        if (pid < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        --live;
        const bool clean =
            WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
        events.logWorker("reaped", pid,
                         WIFEXITED(wstatus) ? WEXITSTATUS(wstatus)
                                            : -1);
        if (!clean)
            exit_code = 1;
        if (!g_stop_requested) {
            // Unexpected death: tear the group down.
            exit_code = 1;
            g_stop_requested = 1;
            for (const pid_t child : pids) {
                if (child != pid)
                    ::kill(child, SIGTERM);
            }
        }
    }
    g_worker_count = 0;
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    std::fprintf(stderr, "maestro serve: all workers drained\n");
    return exit_code;
}

} // namespace serve
} // namespace maestro
