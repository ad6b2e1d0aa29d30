/**
 * @file
 * Out-of-process plumbing: CLI children, the serve child, and loopback
 * HTTP/1.1 keep-alive connections (Content-Length framing, which the
 * server always uses).
 */

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "bench.hh"

extern char **environ;

namespace perfbench
{

namespace
{

/** How long a client busy-polls for a response before blocking. */
constexpr int kSpinMicros = 1000;

std::atomic<std::size_t> g_open{0};
std::atomic<std::size_t> g_peak{0};

/** posix_spawn's argv: pointers into `args`, null-terminated. */
std::vector<char *>
argvOf(const std::vector<std::string> &args)
{
    std::vector<char *> out;
    for (const std::string &a : args)
        out.push_back(const_cast<char *>(a.c_str()));
    out.push_back(nullptr);
    return out;
}

/** waitpid that also collects the child's resource usage. */
bool
reap(pid_t pid, int options, int *status, long *maxrss_kb,
     double *cpu_ms = nullptr)
{
    rusage usage{};
    pid_t rc;
    do {
        rc = ::wait4(pid, status, options, &usage);
    } while (rc < 0 && errno == EINTR);
    if (rc != pid)
        return false;
    *maxrss_kb = usage.ru_maxrss;
    if (cpu_ms)
        *cpu_ms = (static_cast<double>(usage.ru_utime.tv_sec) +
                   static_cast<double>(usage.ru_stime.tv_sec)) *
                      1e3 +
                  (static_cast<double>(usage.ru_utime.tv_usec) +
                   static_cast<double>(usage.ru_stime.tv_usec)) /
                      1e3;
    return true;
}

} // namespace

double
threadCpuMs()
{
    timespec t{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_nsec) / 1e6;
}

ExecResult
runChild(const std::vector<std::string> &argv, const std::string &err_path)
{
    ExecResult result;
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        return result;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                     err_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    std::vector<char *> args = argvOf(argv);
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, args[0], &actions, nullptr,
                                 args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        return result;
    }
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n > 0) {
            result.out.append(buf, static_cast<std::size_t>(n));
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else {
            break;
        }
    }
    ::close(fds[0]);
    int status = 0;
    if (reap(pid, 0, &status, &result.maxrss_kb, &result.cpu_ms))
        result.exited_zero = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return result;
}

ServerChild::ServerChild(const std::string &maestro,
                         const std::string &log_path)
    : log_path_(log_path)
{
    const std::vector<std::string> argv = {
        maestro, "serve",  "--workers", "1",         "--threads",
        "2",     "--port", "0",         "--host",    "127.0.0.1"};
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                     STDERR_FILENO);
    std::vector<char *> args = argvOf(argv);
    if (::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                      environ) != 0)
        pid_ = -1;
    posix_spawn_file_actions_destroy(&actions);
}

ServerChild::~ServerChild()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        int status = 0;
        reap(pid_, 0, &status, &maxrss_kb_);
    }
}

bool
ServerChild::waitReady(double timeout_s)
{
    const auto t0 = Clock::now();
    const std::string marker = "listening on http://";
    const std::string probe =
        "GET /healthz HTTP/1.1\r\nHost: perfbench\r\n\r\n";
    while (pid_ > 0 && secondsSince(t0) < timeout_s) {
        int status = 0;
        long rss = 0;
        if (reap(pid_, WNOHANG, &status, &rss)) {
            pid_ = -1; // died before serving
            return false;
        }
        if (port_ == 0) {
            // The CLI prints "listening on http://HOST:PORT (...)".
            std::ifstream log(log_path_);
            std::stringstream text;
            text << log.rdbuf();
            const std::string s = text.str();
            const std::size_t at = s.find(marker);
            const std::size_t colon =
                at == std::string::npos ? at : s.find(':', at + marker.size());
            if (colon != std::string::npos &&
                s.find(' ', colon) != std::string::npos)
                port_ = static_cast<std::uint16_t>(
                    std::strtoul(s.c_str() + colon + 1, nullptr, 10));
        }
        if (port_ != 0) {
            HttpConnection conn(port_);
            std::string body;
            if (conn.roundTrip(probe, &body) == 200)
                return true;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
}

double
ServerChild::cpuSeconds() const
{
    // /proc/PID/stat: utime and stime are the 12th and 13th fields after
    // the parenthesised command name.
    std::ifstream file("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = text.rfind(')');
    if (pid_ <= 0 || close == std::string::npos)
        return -1.0;
    std::istringstream fields(text.substr(close + 1));
    std::string field;
    double ticks = 0.0;
    for (int i = 1; i <= 13 && fields >> field; ++i)
        if (i >= 12)
            ticks += std::strtod(field.c_str(), nullptr);
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

bool
ServerChild::stop()
{
    if (pid_ <= 0)
        return false;
    ::kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    int status = 0;
    // A drain that hangs is a failure, not a reason to hang the run.
    while (!reap(pid_, WNOHANG, &status, &maxrss_kb_)) {
        if (secondsSince(t0) > 20.0) {
            ::kill(pid_, SIGKILL);
            reap(pid_, 0, &status, &maxrss_kb_);
            pid_ = -1;
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

HttpConnection::HttpConnection(std::uint16_t port)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0)
        return;
    // A window that holds a whole /metrics body, so the server never
    // stalls mid-send waiting for this client to drain the socket.
    const int window = 1 << 20;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &window, sizeof(window));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd_);
        fd_ = -1;
        return;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::size_t open = g_open.fetch_add(1) + 1;
    std::size_t peak = g_peak.load();
    while (open > peak && !g_peak.compare_exchange_weak(peak, open)) {
    }
}

HttpConnection::~HttpConnection() { drop(); }

void
HttpConnection::drop()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
        g_open.fetch_sub(1);
    }
}

std::size_t
HttpConnection::peakOpen()
{
    return g_peak.load();
}

int
HttpConnection::roundTrip(const std::string &wire, std::string *body)
{
    if (fd_ < 0)
        return 0;
    for (std::size_t off = 0; off < wire.size();) {
        const ssize_t n = ::send(fd_, wire.data() + off, wire.size() - off,
                                 MSG_NOSIGNAL);
        if (n <= 0) {
            drop();
            return 0;
        }
        off += static_cast<std::size_t>(n);
    }
    static const std::string kLength = "\r\nContent-Length: ";
    const auto sent = Clock::now();
    std::string &buf = pending_;
    std::size_t header_end = std::string::npos;
    std::size_t length = 0;
    char chunk[1 << 16];
    for (;;) {
        if (header_end == std::string::npos) {
            const std::size_t end = buf.find("\r\n\r\n");
            if (end != std::string::npos) {
                header_end = end + 4;
                const std::size_t at = buf.find(kLength);
                if (at != std::string::npos && at < end)
                    length = std::strtoul(
                        buf.c_str() + at + kLength.size(), nullptr, 10);
            }
        }
        if (header_end != std::string::npos &&
            buf.size() >= header_end + length)
            break;
        // Busy-poll for a short while, then block: a client that
        // blocks at once pays a vCPU wake-up per short response, whose
        // cost swings with the host's load; one that spins through a
        // long evaluation takes a core from the server.
        const bool spin = Clock::now() - sent < std::chrono::microseconds(
                                                    kSpinMicros);
        const ssize_t n =
            ::recv(fd_, chunk, sizeof(chunk), spin ? MSG_DONTWAIT : 0);
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                      errno == EINTR))
            continue;
        if (n <= 0) {
            drop();
            return 0;
        }
        buf.append(chunk, static_cast<std::size_t>(n));
    }
    // "HTTP/1.1 200 OK": the status starts at offset 9.
    const int status =
        buf.size() > 12 ? std::atoi(buf.c_str() + 9) : 0;
    const bool closing =
        buf.find("\r\nConnection: close") < header_end;
    body->assign(buf, header_end, length);
    buf.erase(0, header_end + length);
    if (closing)
        drop();
    return status;
}

double
jsonNumber(const std::string &body, const std::vector<std::string> &anchors,
           const std::string &key)
{
    std::size_t pos = 0;
    for (const std::string &anchor : anchors) {
        pos = body.find(anchor, pos);
        if (pos == std::string::npos)
            return -1.0;
    }
    const std::string quoted = "\"" + key + "\":";
    pos = body.find(quoted, pos);
    if (pos == std::string::npos)
        return -1.0;
    return std::strtod(body.c_str() + pos + quoted.size(), nullptr);
}

double
promSum(const std::string &text, const std::string &name,
        const std::string &label)
{
    double sum = 0.0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string_view line(text.data() + pos, end - pos);
        pos = end + 1;
        if (line.size() <= name.size() || line.compare(0, name.size(), name))
            continue;
        const char next = line[name.size()];
        if (next != '{' && next != ' ')
            continue;
        const std::size_t value_at = line.rfind(' ');
        if (!label.empty() &&
            line.substr(0, value_at).find(label) == std::string_view::npos)
            continue;
        sum += std::strtod(std::string(line.substr(value_at + 1)).c_str(),
                           nullptr);
    }
    return sum;
}

} // namespace perfbench
