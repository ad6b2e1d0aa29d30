/**
 * @file
 * The repository benchmark driver: seeded input generators, the
 * out-of-process plumbing (CLI children, the serve child, loopback
 * HTTP clients), the in-memory span recorder, and the four workloads.
 *
 * Every figure is measured from outside the library: the driver times
 * the CLI binary, the HTTP daemon, or its own calls into the library's
 * public functions. Nothing under src/ or tools/ is instrumented for
 * the benchmark.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/**
 * The calling thread's CPU clock in milliseconds. On a guest with
 * paravirtual steal accounting it excludes the time the host ran other
 * tenants on this vCPU, which a wall clock counts.
 */
double threadCpuMs();

/**
 * Host speed gauge: a fixed CPU-bound kernel of the benchmark's own,
 * timed on the calling thread's CPU clock. A shared host changes its
 * cores' clock rate with its neighbours' load, in steps that last tens
 * of seconds, and every CPU time a run measures moves by the same
 * factor. A time multiplied by scaleAt() reads as on a host that runs
 * the kernel in kNominalMs. The kernel never changes with the program,
 * so a faster program still reads faster.
 */
class SpeedGauge
{
  public:
    /** The kernel's CPU time on an idle 4-vCPU Xeon guest. */
    static constexpr double kNominalMs = 0.3;

    /** Timings whose median sets the scale at a point in time. */
    static constexpr std::size_t kRecent = 9;

    /** Times the kernel once. */
    void sample();

    /** kRecent samples, so the scale is defined from the start. */
    void prime();

    /** kNominalMs over the median of the last kRecent timings taken at
     *  or before `t` (over the first kRecent when none was); 1 when
     *  there are no timings. */
    double scaleAt(Clock::time_point t) const;

    /** kNominalMs over the median of the timings taken in [from, to),
     *  or scaleAt(to) when none was. */
    double scaleBetween(Clock::time_point from, Clock::time_point to) const;

    /** Median of every timing; 0 when there are none. */
    double medianMs() const;

    std::size_t size() const { return timings_.size(); }

  private:
    double scaleOf(std::size_t first, std::size_t last) const;

    std::vector<std::pair<Clock::time_point, double>> timings_;
    /** The kernel's working set: 256 KiB, resident in a core's L2. */
    std::vector<std::uint64_t> table_ = std::vector<std::uint64_t>(1 << 15);
};

/** SplitMix64: the one seeded generator behind every input. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Uniform draw from [0, n); n > 0. */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

// ------------------------------------------------------------ statistics

/**
 * Nearest-rank percentile: the smallest sample v such that at least
 * p percent of the samples are <= v. `p` in (0, 100]; empty -> 0.
 */
double percentile(std::vector<double> values, double p);

/** Samples strictly above percentile(values, p). */
std::size_t samplesAbove(const std::vector<double> &values, double p);

/** Arithmetic mean; empty -> 0. */
double mean(const std::vector<double> &values);

inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

/** Load-generator width: the workload's client count, capped by nproc. */
std::size_t clientCount(std::size_t wanted, unsigned hw_threads);

/** One operation of a closed loop: when it ended (seconds into its
 *  phase), how long it took, and whether it succeeded. */
struct Sample
{
    double end_s = 0.0;
    double ms = 0.0;
    bool ok = false;
};

/** A run's latency and throughput over its fastest windows. */
struct WindowStats
{
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double ops_per_s = 0.0;
    std::size_t windows = 0;
    std::size_t samples = 0; ///< pooled from the kept windows
    /** The same figures over every window. */
    double all_p50_ms = 0.0;
    double all_p99_ms = 0.0;
    double all_ops_per_s = 0.0;
};

/**
 * Splits `samples` (in completion order) into `windows` consecutive
 * windows of whole `cycle`-operation cycles, so every window holds the
 * same operation mix; a trailing partial cycle joins none. It keeps the
 * `keep` windows that completed operations fastest and reports the p50
 * and p99 of their pooled samples and their completed operations per
 * second. A host stall that slows all but `keep` windows moves none of
 * the figures.
 */
WindowStats windowStats(const std::vector<Sample> &samples,
                        std::size_t cycle, std::size_t windows,
                        std::size_t keep);

// ---------------------------------------------------------------- inputs

/** One HTTP request of a generated stream. */
struct Request
{
    std::string method = "POST";
    std::string path;                         ///< "/analyze", "/stats", ...
    std::map<std::string, std::string> query; ///< rendered in key order
    std::string body;

    /** Request-line target: the path plus "?k=v&..." when any. */
    std::string target() const;

    /** The full keep-alive HTTP/1.1 request bytes. */
    std::string wire() const;
};

/**
 * The serve_cold stream of one client: an endless seeded sequence
 * whose bodies never repeat (each network carries a unique name) while
 * the layer shapes recur from a bounded pool, so the server's result
 * cache never hits and its stage caches hit part of the time.
 */
class ColdStream
{
  public:
    ColdStream(std::uint64_t seed, std::size_t client);

    Request next();

  private:
    Rng rng_;
    std::size_t client_;
    std::uint64_t index_ = 0;
};

/** The serve_hot working set: a few POSTs that fit the result cache. */
std::vector<Request> hotWorkingSet(std::uint64_t seed);

/** The two serve_hot scrapes: GET /metrics and GET /stats. */
std::vector<Request> hotScrapes();

/** Request `i` of serve_hot `client`: the working set from a seeded
 *  offset, with every 20th request a scrape. */
const Request &hotRequest(const std::vector<Request> &set,
                          const std::vector<Request> &scrapes,
                          std::uint64_t seed, std::size_t client,
                          std::uint64_t i);

/** One search round's call order: `dse_sweeps` zeros (DSE sweeps), a
 *  one (the mapper) and a two (crossval), shuffled by the seed. */
std::vector<int> searchRound(std::uint64_t seed, std::uint64_t round,
                             int dse_sweeps);

/** The cli_cold generated DSL network (the `analyze --file` input). */
std::string cliNetworkDsl(std::uint64_t seed);

/** One cli_cold command. */
struct CliCommand
{
    std::string label;
    std::vector<std::string> args; ///< after the binary
    /** stdout must equal the in-process handler's JSON plus "\n". */
    bool json = false;
};

/** The fixed cli_cold cycle; `dsl_path` feeds `analyze --file`. */
std::vector<CliCommand> cliCommands(const std::string &dsl_path);

// ------------------------------------------------------------- processes

/** Outcome of one CLI child. */
struct ExecResult
{
    bool exited_zero = false;
    std::string out;    ///< captured stdout
    long maxrss_kb = 0; ///< the child's peak resident set
    double cpu_ms = 0;  ///< the child's user plus system CPU time
};

/** Spawns `argv` (stdout captured, stderr appended to `err_path`) and
 *  waits for it. */
ExecResult runChild(const std::vector<std::string> &argv,
                    const std::string &err_path);

/** `maestro serve --workers 1 --threads 2` on an ephemeral loopback
 *  port; its stdout and stderr go to `log_path`. */
class ServerChild
{
  public:
    ServerChild(const std::string &maestro, const std::string &log_path);
    ~ServerChild();

    ServerChild(const ServerChild &) = delete;
    ServerChild &operator=(const ServerChild &) = delete;

    /** Blocks until GET /healthz answers 200; false after `timeout_s`
     *  or when the child dies. */
    bool waitReady(double timeout_s);

    std::uint16_t port() const { return port_; }

    /** The running server's user plus system CPU time so far, every
     *  thread included (clock-tick resolution); -1 when unreadable. */
    double cpuSeconds() const;

    /** SIGTERM, then waits: true when the drain ended in exit 0. */
    bool stop();

    /** Peak resident set of the stopped child. */
    long maxrssKb() const { return maxrss_kb_; }

  private:
    std::string log_path_;
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
    long maxrss_kb_ = 0;
};

/**
 * One keep-alive loopback connection. Every open connection counts
 * against a process-wide tally, so a run can show it never held more
 * connections than nproc.
 */
class HttpConnection
{
  public:
    explicit HttpConnection(std::uint16_t port);
    ~HttpConnection();

    HttpConnection(const HttpConnection &) = delete;
    HttpConnection &operator=(const HttpConnection &) = delete;

    /** Sends one request and reads its response into `body`; returns
     *  the status, or 0 when the connection failed. */
    int roundTrip(const std::string &wire, std::string *body);

    /** Most connections this process ever held open at once. */
    static std::size_t peakOpen();

  private:
    void drop();

    int fd_ = -1;
    std::string pending_;
};

/** The number after `"key":` that follows each of `anchors` in turn
 *  (-1 when any is absent). A lookup, not a JSON parser: the server's
 *  bodies are the only input. */
double jsonNumber(const std::string &body,
                  const std::vector<std::string> &anchors,
                  const std::string &key);

/** Sum of the Prometheus samples named `name` whose label set
 *  contains `label` ("" matches all). */
double promSum(const std::string &text, const std::string &name,
               const std::string &label);

// --------------------------------------------------------------- tracing

/**
 * In-memory span recorder: name, start, end, parent, and the id of the
 * operation the span belongs to. A disabled recorder records nothing.
 * Recorders are per thread; absorb() merges them after the threads end.
 */
class Tracer
{
  public:
    static constexpr std::uint32_t kNone = 0xffffffffu;

    explicit Tracer(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    std::uint32_t begin(const char *name, std::uint64_t op,
                        std::uint32_t parent = kNone);
    void end(std::uint32_t id);

    /** Appends `other`'s spans, re-basing their parent ids. */
    void absorb(const Tracer &other);

    /** Per span name: summed duration (ns) and span count. */
    std::map<std::string, std::pair<double, std::size_t>> totals() const;

    /** Per span name: summed self time (ns), the duration minus the
     *  part covered by direct children. */
    std::map<std::string, double> selfNs() const;

    /** Writes every span as JSON; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::uint32_t parent;
        std::uint64_t op;
        const char *name;
        std::int64_t start_ns;
        std::int64_t end_ns;
    };

    bool enabled_;
    std::vector<Span> spans_;
};

class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, std::uint64_t op,
               std::uint32_t parent = Tracer::kNone)
        : tracer_(tracer), id_(tracer.begin(name, op, parent))
    {
    }
    ~ScopedSpan() { tracer_.end(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint32_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::uint32_t id_;
};

// --------------------------------------------------------------- results

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string maestro; ///< the built CLI binary
    std::string out_dir; ///< scratch space inside the checkout
    unsigned hw_threads = 1;
};

/** What one run measured and checked. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> values; ///< metric name -> value
    std::map<std::string, double> counts; ///< sample counts, printed
    std::vector<std::string> problems;
    Tracer spans{true}; ///< the traced run's spans, written at exit

    void fail(const std::string &why)
    {
        correct = false;
        problems.push_back(why);
    }
};

/** The layers of the per-operation ledger, in report order. */
inline constexpr const char *kLayers[] = {
    "process", "model", "frontend", "core",  "dse",
    "mapper",  "sim",   "serve",    "obs",   "common",
};

RunResult runCliCold(const Options &options);
RunResult runServeCold(const Options &options);
RunResult runServeHot(const Options &options);
RunResult runSearch(const Options &options);

/** The driver's self-tests; each failure appends to `problems`. */
bool selfTest(std::vector<std::string> &problems);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
