/**
 * @file
 * Loopback tests for the analysis server: routing and status codes,
 * byte-identity between server responses and the direct handler
 * call (the CLI's `--format json` path), cross-request stage-cache
 * reuse observable through GET /stats, exact stage-counter
 * accounting, concurrent mixed-shape storms, 503 backpressure under
 * a saturated queue, 408 deadline expiry, keep-alive, graceful
 * drain, and the admission/histogram primitives. Also the
 * observability surfaces: GET /metrics Prometheus exposition,
 * X-Trace-Id headers, and the guarantee that enabling the tracer
 * never changes response bytes.
 *
 * Suites are prefixed "Serve" so the CI thread-sanitizer job picks
 * them up alongside the ThreadPool/Pipeline concurrency tests.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/error.hh"
#include "src/common/version.hh"
#include "src/dataflows/catalog.hh"
#include "src/frontend/serializer.hh"
#include "src/model/zoo.hh"
#include "src/obs/metrics.hh"
#include "src/obs/obs.hh"
#include "src/obs/shared_metrics.hh"
#include "src/serve/admission.hh"
#include "src/serve/handlers.hh"
#include "src/serve/http.hh"
#include "src/serve/server.hh"
#include "src/sim/crossval.hh"

namespace maestro
{
namespace serve
{
namespace
{

// ---------------------------------------------------------------- //
//                       Loopback test client                       //
// ---------------------------------------------------------------- //

/** Server under test: run() on a background thread, ephemeral port. */
class TestServer
{
  public:
    explicit TestServer(ServeOptions options = ServeOptions())
    {
        options.port = 0; // ephemeral; resolved via port()
        server_ = std::make_unique<AnalysisServer>(ServeContext(),
                                                   options);
        server_->start();
        thread_ = std::thread([this] { server_->run(); });
    }

    ~TestServer() { stop(); }

    void
    stop()
    {
        if (thread_.joinable()) {
            server_->requestStop();
            thread_.join();
        }
    }

    /** Initiates the drain WITHOUT joining: the server keeps
     *  lingering connections alive while tests probe drain
     *  behaviour; follow with stop() to finish. */
    void beginStop() { server_->requestStop(); }

    std::uint16_t port() const { return server_->port(); }

  private:
    std::unique_ptr<AnalysisServer> server_;
    std::thread thread_;
};

/** One parsed client-side response. */
struct ClientResponse
{
    int status = -1; ///< -1: connection closed before a response
    std::map<std::string, std::string> headers; ///< lowercased names
    std::string body;
};

int
connectLoopback(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    // A stuck server should fail the test, not hang ctest.
    struct timeval tv;
    tv.tv_sec = 30;
    tv.tv_usec = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

void
sendAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::send(fd, bytes.data() + off, bytes.size() - off, 0);
        ASSERT_GT(n, 0);
        off += static_cast<std::size_t>(n);
    }
}

std::string
lowerTrim(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    const auto b = s.find_first_not_of(" \t");
    const auto e = s.find_last_not_of(" \t");
    return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

/** Reads exactly one response (Content-Length framing). */
ClientResponse
readResponse(int fd)
{
    ClientResponse r;
    std::string buf;
    std::size_t header_end;
    while ((header_end = buf.find("\r\n\r\n")) == std::string::npos) {
        char tmp[4096];
        const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
        if (n <= 0)
            return r;
        buf.append(tmp, static_cast<std::size_t>(n));
    }
    r.status = std::atoi(buf.c_str() + 9); // skip "HTTP/1.1 "
    std::size_t pos = buf.find("\r\n") + 2;
    while (pos < header_end) {
        const std::size_t eol = buf.find("\r\n", pos);
        const std::string line = buf.substr(pos, eol - pos);
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos)
            r.headers[lowerTrim(line.substr(0, colon))] =
                lowerTrim(line.substr(colon + 1));
        pos = eol + 2;
    }
    std::size_t content_length = 0;
    const auto cl = r.headers.find("content-length");
    if (cl != r.headers.end())
        content_length = std::stoul(cl->second);
    r.body = buf.substr(header_end + 4);
    while (r.body.size() < content_length) {
        char tmp[4096];
        const ssize_t n = ::recv(fd, tmp, sizeof(tmp), 0);
        if (n <= 0)
            break;
        r.body.append(tmp, static_cast<std::size_t>(n));
    }
    r.body.resize(std::min(r.body.size(), content_length));
    return r;
}

std::string
getRequest(const std::string &target, bool keep_alive = true)
{
    std::string out = "GET " + target + " HTTP/1.1\r\nHost: t\r\n";
    if (!keep_alive)
        out += "Connection: close\r\n";
    return out + "\r\n";
}

std::string
postRequest(const std::string &target, const std::string &body,
            const std::string &extra_header = "")
{
    std::string out = "POST " + target + " HTTP/1.1\r\nHost: t\r\n";
    if (!extra_header.empty())
        out += extra_header + "\r\n";
    return out + "Content-Length: " + std::to_string(body.size()) +
           "\r\n\r\n" + body;
}

/** Connect, send one request, read one response, close. */
ClientResponse
oneShot(std::uint16_t port, const std::string &raw)
{
    ClientResponse r;
    const int fd = connectLoopback(port);
    EXPECT_GE(fd, 0);
    if (fd < 0)
        return r;
    sendAll(fd, raw);
    r = readResponse(fd);
    ::close(fd);
    return r;
}

// ---------------------------------------------------------------- //
//                        Payloads + helpers                        //
// ---------------------------------------------------------------- //

/** Single-conv network; shape varies with `k` (mixed-shape storms). */
std::string
tinyNetwork(int k)
{
    return "Network tiny" + std::to_string(k) +
           " {\n"
           "  Layer conv {\n"
           "    Type: CONV;\n"
           "    Dimensions { K: " +
           std::to_string(k) +
           "; C: 4; R: 3; S: 3; Y: 16; X: 16; }\n"
           "  }\n"
           "}\n";
}

/** Same shape, `layers` copies — the shape-dedup stats script. */
std::string
repeatedShapeNetwork(int layers)
{
    std::string out = "Network rep {\n";
    for (int i = 0; i < layers; ++i)
        out += "  Layer conv" + std::to_string(i) +
               " { Type: CONV; Dimensions "
               "{ K: 8; C: 4; R: 3; S: 3; Y: 16; X: 16; } }\n";
    return out + "}\n";
}

/** Many distinct shapes: expensive enough to hold a worker busy. */
std::string
heavyPayload()
{
    Network net("heavy");
    for (int i = 0; i < 120; ++i) {
        DimMap<Count> d(1);
        d[Dim::K] = 16 + i % 17;
        d[Dim::C] = 8 + i % 5;
        d[Dim::R] = 3;
        d[Dim::S] = 3;
        d[Dim::Y] = 32 + i % 9;
        d[Dim::X] = 32 + i % 7;
        std::string name = "l";
        name += std::to_string(i);
        net.addLayer(Layer(name, OpType::Conv2D, d));
    }
    return frontend::serialize(net);
}

/**
 * Single conv sized so its exact-walk C-P simulation (774,400 nest
 * steps) holds a worker busy for about 0.4 s at the walker's rate of
 * about 1.9M steps/s (4-vCPU guest, Release): over ten times the 30 ms
 * stagger the concurrency tests leave before their next client, so
 * that client meets the busy worker, yet short enough not to stall
 * ctest.
 */
std::string
midNetwork()
{
    return "Network mid {\n"
           "  Layer conv {\n"
           "    Type: CONV;\n"
           "    Dimensions { K: 64; C: 16; R: 3; S: 3; "
           "Y: 112; X: 112; }\n"
           "  }\n"
           "}\n";
}

/**
 * Extracts the integer member `field` of JSON object `object` from a
 * body produced by JsonWriter (known key order, no whitespace).
 */
std::uint64_t
jsonField(const std::string &body, const std::string &object,
          const std::string &field)
{
    const std::string obj_marker = "\"" + object + "\":{";
    const std::size_t obj = body.find(obj_marker);
    EXPECT_NE(obj, std::string::npos) << object << " in " << body;
    if (obj == std::string::npos)
        return 0;
    const std::string field_marker = "\"" + field + "\":";
    const std::size_t at =
        body.find(field_marker, obj + obj_marker.size());
    EXPECT_NE(at, std::string::npos) << field << " in " << body;
    if (at == std::string::npos)
        return 0;
    return std::strtoull(
        body.c_str() + at + field_marker.size(), nullptr, 10);
}

/** Extracts the string member `field` from a JsonWriter body. */
std::string
jsonString(const std::string &body, const std::string &field)
{
    const std::string marker = "\"" + field + "\":\"";
    const std::size_t at = body.find(marker);
    EXPECT_NE(at, std::string::npos) << field << " in " << body;
    if (at == std::string::npos)
        return "";
    const std::size_t end = body.find('"', at + marker.size());
    return body.substr(at + marker.size(),
                       end - at - marker.size());
}

/** Polls GET /jobs/<id> until the job leaves queued/running. */
ClientResponse
waitJob(std::uint16_t port, const std::string &id)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    ClientResponse r;
    while (std::chrono::steady_clock::now() < deadline) {
        r = oneShot(port, getRequest("/jobs/" + id));
        const bool pending =
            r.status == 200 &&
            (r.body.find("\"state\":\"queued\"") !=
                 std::string::npos ||
             r.body.find("\"state\":\"running\"") !=
                 std::string::npos);
        if (!pending)
            return r;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ADD_FAILURE() << "job " << id << " never reached a terminal "
                  << "state; last body: " << r.body;
    return r;
}

/** The reference bytes the server must reproduce for /analyze. */
std::string
referenceAnalyze(const std::string &dsl, const QueryParams &params)
{
    const RequestInputs inputs = resolveRequest(
        dsl, params, AcceleratorConfig::paperStudy());
    return analyzeJson(inputs, std::make_shared<AnalysisPipeline>(),
                       EnergyModel());
}

/** The reference bytes the server must reproduce for /simulate. */
std::string
referenceSimulate(const std::string &dsl, const QueryParams &params)
{
    const RequestInputs inputs = resolveRequest(
        dsl, params, AcceleratorConfig::paperStudy());
    return simulateJson(inputs, params,
                        std::make_shared<AnalysisPipeline>(),
                        EnergyModel());
}

// ---------------------------------------------------------------- //
//                     Routing and status codes                     //
// ---------------------------------------------------------------- //

TEST(Serve, HealthzStatsAndRouting)
{
    TestServer server;
    const std::uint16_t port = server.port();
    ASSERT_GT(port, 0);

    const ClientResponse health =
        oneShot(port, getRequest("/healthz"));
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body, healthzJson());
    EXPECT_EQ(health.headers.at("content-type"), "application/json");
    // The liveness probe carries the build version.
    EXPECT_NE(health.body.find(std::string("\"version\":\"") +
                               kVersion + "\""),
              std::string::npos);

    const ClientResponse stats = oneShot(port, getRequest("/stats"));
    EXPECT_EQ(stats.status, 200);
    EXPECT_NE(stats.body.find("\"pipeline\""), std::string::npos);
    EXPECT_NE(stats.body.find("\"queue\""), std::string::npos);

    EXPECT_EQ(oneShot(port, getRequest("/nope")).status, 404);
    EXPECT_EQ(oneShot(port, getRequest("/analyze")).status, 405);
    EXPECT_EQ(oneShot(port, postRequest("/healthz", "x")).status,
              405);

    const ClientResponse bad =
        oneShot(port, postRequest("/analyze", "Nonsense ("));
    EXPECT_EQ(bad.status, 400);
    EXPECT_NE(bad.body.find("\"error\""), std::string::npos);

    const ClientResponse empty =
        oneShot(port, postRequest("/analyze", ""));
    EXPECT_EQ(empty.status, 400);

    // Parser-level error: malformed request line closes with 400.
    const ClientResponse mangled = oneShot(port, "BROKEN\r\n\r\n");
    EXPECT_EQ(mangled.status, 400);
}

// ---------------------------------------------------------------- //
//                   Byte-identity with handlers                    //
// ---------------------------------------------------------------- //

TEST(Serve, AnalyzeMatchesDirectHandlerByteForByte)
{
    TestServer server;
    const std::string dsl = tinyNetwork(8);

    const ClientResponse got = oneShot(
        server.port(), postRequest("/analyze?dataflow=C-P", dsl));
    ASSERT_EQ(got.status, 200);
    EXPECT_EQ(got.body,
              referenceAnalyze(dsl, QueryParams{{"dataflow", "C-P"}}));
}

TEST(Serve, DseAndTuneEndpoints)
{
    TestServer server;
    const std::uint16_t port = server.port();
    const std::string dsl = tinyNetwork(8);

    const ClientResponse dse =
        oneShot(port, postRequest("/dse?dataflow=C-P", dsl));
    ASSERT_EQ(dse.status, 200) << dse.body;
    EXPECT_NE(dse.body.find("\"endpoint\":\"dse\""),
              std::string::npos);
    EXPECT_NE(dse.body.find("\"best_edp\""), std::string::npos);
    EXPECT_GT(jsonField(dse.body, "best_throughput", "num_pes"), 0u);

    const ClientResponse tune =
        oneShot(port, postRequest("/tune?objective=edp", dsl));
    ASSERT_EQ(tune.status, 200) << tune.body;
    EXPECT_NE(tune.body.find("\"endpoint\":\"tune\""),
              std::string::npos);
    EXPECT_NE(tune.body.find("\"ranked\""), std::string::npos);
    EXPECT_NE(tune.body.find("\"winner\""), std::string::npos);

    // dse with several dataflows resolved (no ?dataflow) is a 400.
    EXPECT_EQ(oneShot(port, postRequest("/dse", dsl)).status, 400);
}

TEST(Serve, SimulateMatchesDirectHandlerByteForByte)
{
    const std::string dsl = tinyNetwork(8);
    const QueryParams params{{"dataflow", "C-P"}};
    const std::string expected = referenceSimulate(dsl, params);
    const std::string raw =
        postRequest("/simulate?dataflow=C-P", dsl);

    TestServer server;
    const ClientResponse got = oneShot(server.port(), raw);
    ASSERT_EQ(got.status, 200) << got.body;
    EXPECT_EQ(got.body, expected);
    EXPECT_NE(got.body.find("\"endpoint\":\"simulate\""),
              std::string::npos);
    EXPECT_NE(got.body.find("\"mode\":\"periodic\""),
              std::string::npos);
    EXPECT_NE(got.body.find("\"step_classes\""), std::string::npos);

    // The worker-pool size must never leak into response bytes: a
    // 4-worker deployment serves the same JSON as the direct call.
    ServeOptions options;
    options.worker_threads = 4;
    TestServer pooled(options);
    const ClientResponse via_pool = oneShot(pooled.port(), raw);
    ASSERT_EQ(via_pool.status, 200) << via_pool.body;
    EXPECT_EQ(via_pool.body, expected);
}

TEST(Serve, SimulateExactOracleMatchesPeriodicNumbers)
{
    TestServer server;
    const std::uint16_t port = server.port();
    const std::string dsl = tinyNetwork(8);

    const ClientResponse periodic =
        oneShot(port, postRequest("/simulate?dataflow=C-P", dsl));
    const ClientResponse exact = oneShot(
        port, postRequest("/simulate?dataflow=C-P&exact=on", dsl));
    ASSERT_EQ(periodic.status, 200) << periodic.body;
    ASSERT_EQ(exact.status, 200) << exact.body;

    // The fast path pins every numeric field to the naive walker's;
    // only the "mode" tag may differ between the two bodies.
    const std::string exact_tag = "\"mode\":\"exact\"";
    std::string normalized = exact.body;
    const std::size_t at = normalized.find(exact_tag);
    ASSERT_NE(at, std::string::npos) << exact.body;
    normalized.replace(at, exact_tag.size(), "\"mode\":\"periodic\"");
    EXPECT_EQ(normalized, periodic.body);
}

TEST(Serve, SimulateGuardLayerErrorsAndStatsCounter)
{
    TestServer server;
    const std::uint16_t port = server.port();

    // The exact-path work guard surfaces as a client error, naming
    // the guard in the body rather than burning a worker.
    const ClientResponse guarded = oneShot(
        port, postRequest("/simulate?dataflow=C-P&exact=on&"
                          "max_steps=10",
                          tinyNetwork(8)));
    EXPECT_EQ(guarded.status, 400);
    EXPECT_NE(guarded.body.find("\"error\""), std::string::npos);

    // A non-positive guard is rejected up front.
    EXPECT_EQ(oneShot(port, postRequest(
                                "/simulate?dataflow=C-P&max_steps=0",
                                tinyNetwork(8)))
                  .status,
              400);

    // Multi-layer networks need ?layer=; with it, the request lands.
    const std::string two = repeatedShapeNetwork(2);
    EXPECT_EQ(
        oneShot(port, postRequest("/simulate?dataflow=C-P", two))
            .status,
        400);
    EXPECT_EQ(oneShot(port, postRequest(
                                "/simulate?dataflow=C-P&layer=conv1",
                                two))
                  .status,
              200);

    const std::string stats =
        oneShot(port, getRequest("/stats")).body;
    EXPECT_EQ(jsonField(stats, "requests", "simulate"), 4u);
}

TEST(Serve, SimulateSharesBackpressureAndDeadlinePaths)
{
    // /simulate rides the same admission/deadline machinery as the
    // other analysis endpoints; pin both failure paths for it.
    const std::string slow_raw = postRequest(
        "/simulate?dataflow=C-P&exact=on", midNetwork());

    {
        ServeOptions options;
        options.worker_threads = 1;
        options.queue_capacity = 1;
        options.deadline_ms = 60000;
        TestServer server(options);
        const std::uint16_t port = server.port();

        constexpr int kClients = 4;
        std::mutex mutex;
        std::condition_variable cv;
        int ready = 0;
        bool go = false;
        std::vector<ClientResponse> responses(kClients);
        std::vector<std::thread> clients;
        for (int i = 0; i < kClients; ++i) {
            clients.emplace_back([&, i] {
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    if (++ready == kClients) {
                        go = true;
                        cv.notify_all();
                    } else {
                        cv.wait(lock, [&] { return go; });
                    }
                }
                responses[i] = oneShot(port, slow_raw);
            });
        }
        for (std::thread &t : clients)
            t.join();

        int ok = 0;
        int rejected = 0;
        for (const ClientResponse &r : responses) {
            if (r.status == 200) {
                ++ok;
            } else if (r.status == 503) {
                ++rejected;
                EXPECT_EQ(r.headers.count("retry-after"), 1u);
            } else {
                ADD_FAILURE() << "unexpected status " << r.status;
            }
        }
        EXPECT_GE(ok, 1);
        EXPECT_GE(rejected, 1);
    }

    {
        ServeOptions options;
        options.worker_threads = 2;
        options.deadline_ms = 1; // far below the exact walk's cost
        TestServer server(options);
        const ClientResponse slow =
            oneShot(server.port(), slow_raw);
        EXPECT_EQ(slow.status, 408);
        EXPECT_NE(slow.body.find("\"error\""), std::string::npos);
    }
}

// ---------------------------------------------------------------- //
//            Cross-request cache reuse (acceptance test)           //
// ---------------------------------------------------------------- //

TEST(Serve, CrossRequestCacheReuseVisibleInStats)
{
    TestServer server;
    const std::uint16_t port = server.port();
    const std::string raw =
        postRequest("/analyze?dataflow=C-P", tinyNetwork(8));

    const ClientResponse first = oneShot(port, raw);
    ASSERT_EQ(first.status, 200);
    EXPECT_EQ(first.headers.at("x-result-cache"), "miss");
    const std::uint64_t hits_after_first = jsonField(
        oneShot(port, getRequest("/stats")).body, "aggregate",
        "hits");

    // The identical repeat short-circuits at the content-addressed
    // result cache: byte-identical body, no pipeline work at all.
    const ClientResponse second = oneShot(port, raw);
    ASSERT_EQ(second.status, 200);
    EXPECT_EQ(second.body, first.body);
    EXPECT_EQ(second.headers.at("x-result-cache"), "hit");
    std::string stats = oneShot(port, getRequest("/stats")).body;
    EXPECT_EQ(jsonField(stats, "result_cache", "hits"), 1u);
    EXPECT_GE(jsonField(stats, "result_cache", "served_bytes"),
              first.body.size());
    EXPECT_EQ(jsonField(stats, "aggregate", "hits"),
              hits_after_first);

    // A variant request (same layer, explicit ?layer=) has a new
    // canonical key — result-cache miss — but underneath it the
    // shared pipeline serves the repeat from its stage caches.
    const ClientResponse third = oneShot(
        port, postRequest("/analyze?dataflow=C-P&layer=conv",
                          tinyNetwork(8)));
    ASSERT_EQ(third.status, 200);
    EXPECT_EQ(third.headers.at("x-result-cache"), "miss");
    stats = oneShot(port, getRequest("/stats")).body;
    EXPECT_GT(jsonField(stats, "aggregate", "hits"),
              hits_after_first);
    EXPECT_GE(jsonField(stats, "layer", "hits"), 1u);
    EXPECT_EQ(jsonField(stats, "result_cache", "misses"), 2u);
}

// ---------------------------------------------------------------- //
//              Exact stage-counter accounting (/stats)             //
// ---------------------------------------------------------------- //

TEST(Serve, StatsPinStageCountersAfterShapeDedupSequence)
{
    TestServer server;
    const std::uint16_t port = server.port();
    const std::string dsl = repeatedShapeNetwork(3);

    // 3 identical-shape layers under one dataflow: one layer-cache
    // miss computes the stages once; the two clones hit the layer
    // cache without touching the inner stages.
    ASSERT_EQ(
        oneShot(port, postRequest("/analyze?dataflow=C-P", dsl))
            .status,
        200);
    std::string stats = oneShot(port, getRequest("/stats")).body;
    EXPECT_EQ(jsonField(stats, "pipeline", "evaluations"), 3u);
    EXPECT_EQ(jsonField(stats, "layer", "misses"), 1u);
    EXPECT_EQ(jsonField(stats, "layer", "hits"), 2u);
    EXPECT_EQ(jsonField(stats, "tensor", "misses"), 1u);
    EXPECT_EQ(jsonField(stats, "tensor", "hits"), 0u);
    EXPECT_EQ(jsonField(stats, "binding", "misses"), 1u);
    EXPECT_EQ(jsonField(stats, "flat", "misses"), 1u);
    EXPECT_EQ(jsonField(stats, "aggregate", "hits"), 2u);
    EXPECT_EQ(jsonField(stats, "aggregate", "misses"), 4u);

    // Same shapes under a different dataflow: new layer/binding/flat
    // entries, but the shape-keyed tensor stage hits.
    ASSERT_EQ(
        oneShot(port, postRequest("/analyze?dataflow=X-P", dsl))
            .status,
        200);
    stats = oneShot(port, getRequest("/stats")).body;
    EXPECT_EQ(jsonField(stats, "pipeline", "evaluations"), 6u);
    EXPECT_EQ(jsonField(stats, "layer", "misses"), 2u);
    EXPECT_EQ(jsonField(stats, "layer", "hits"), 4u);
    EXPECT_EQ(jsonField(stats, "tensor", "misses"), 1u);
    EXPECT_EQ(jsonField(stats, "tensor", "hits"), 1u);
    EXPECT_EQ(jsonField(stats, "binding", "misses"), 2u);
    EXPECT_EQ(jsonField(stats, "flat", "misses"), 2u);

    // Request accounting rides along.
    EXPECT_EQ(jsonField(stats, "requests", "analyze"), 2u);
    EXPECT_EQ(jsonField(stats, "queue", "depth"), 0u);
    EXPECT_GE(jsonField(stats, "latency_us", "count"), 2u);

    // The latency histogram names its bucket upper bounds: powers of
    // two from 2 µs, with null for the catch-all bucket.
    EXPECT_NE(stats.find("\"le_us\":[2,4,8,16,"), std::string::npos);
    EXPECT_NE(stats.find(",null]"), std::string::npos);
}

// ---------------------------------------------------------------- //
//              Observability surfaces (/metrics, tracing)           //
// ---------------------------------------------------------------- //

TEST(Serve, MetricsEndpointSpeaksPrometheusText)
{
    TestServer server;
    const std::uint16_t port = server.port();

    // Generate some traffic so counters are nonzero.
    ASSERT_EQ(oneShot(port, postRequest("/analyze?dataflow=C-P",
                                        tinyNetwork(8)))
                  .status,
              200);

    const ClientResponse metrics =
        oneShot(port, getRequest("/metrics"));
    ASSERT_EQ(metrics.status, 200);
    EXPECT_EQ(metrics.headers.at("content-type"),
              "text/plain; version=0.0.4; charset=utf-8");

    const std::string &body = metrics.body;
    EXPECT_NE(body.find(std::string("maestro_build_info{version=\"") +
                        kVersion + "\"} 1"),
              std::string::npos);
    EXPECT_NE(body.find("# TYPE maestro_requests_total counter"),
              std::string::npos);
    EXPECT_NE(body.find("maestro_requests_total{endpoint=\"analyze\"}"
                        " 1"),
              std::string::npos);
    EXPECT_NE(body.find("maestro_responses_total{class=\"2xx\"}"),
              std::string::npos);
    EXPECT_NE(
        body.find("# TYPE maestro_request_latency_us histogram"),
        std::string::npos);
    EXPECT_NE(body.find("maestro_request_latency_us_bucket{le=\"2\"}"),
              std::string::npos);
    EXPECT_NE(body.find("maestro_request_latency_us_bucket{le="
                        "\"+Inf\"}"),
              std::string::npos);
    EXPECT_NE(body.find("maestro_request_latency_us_count"),
              std::string::npos);
    EXPECT_NE(body.find(
                  "maestro_pipeline_cache_misses_total{stage="
                  "\"aggregate\"}"),
              std::string::npos);
    EXPECT_NE(body.find("maestro_pipeline_evaluations_total 1"),
              std::string::npos);
    EXPECT_NE(body.find("maestro_queue_capacity"), std::string::npos);

    // The library's instruments share the document: the daemon
    // enables timing by default, so stage-miss histograms have
    // samples.
    EXPECT_NE(body.find("maestro_pipeline_stage_miss_us_bucket"),
              std::string::npos);
    // Request latency is recorded once, in the per-endpoint
    // histogram; no second family duplicates it.
    EXPECT_NE(body.find("maestro_endpoint_latency_us_bucket{cache="
                        "\"miss\",endpoint=\"analyze\""),
              std::string::npos);
    EXPECT_EQ(body.find("maestro_http_request_us"), std::string::npos);

    // /metrics requests count themselves (incremented before the
    // render, so the first scrape already shows 1).
    EXPECT_NE(body.find(
                  "maestro_requests_total{endpoint=\"metrics\"} 1"),
              std::string::npos);
    const ClientResponse again =
        oneShot(port, getRequest("/metrics"));
    EXPECT_NE(again.body.find(
                  "maestro_requests_total{endpoint=\"metrics\"} 2"),
              std::string::npos);
}

TEST(Serve, EveryResponseCarriesATraceId)
{
    TestServer server;
    const std::uint16_t port = server.port();

    const ClientResponse first =
        oneShot(port, getRequest("/healthz"));
    ASSERT_EQ(first.status, 200);
    ASSERT_EQ(first.headers.count("x-trace-id"), 1u);
    EXPECT_EQ(first.headers.at("x-trace-id"), "maestro-1");

    const ClientResponse second =
        oneShot(port, getRequest("/healthz"));
    EXPECT_EQ(second.headers.at("x-trace-id"), "maestro-2");

    // A client-sent id is echoed back verbatim.
    const std::string tagged =
        "GET /healthz HTTP/1.1\r\nHost: t\r\n"
        "X-Trace-Id: client-tag-7\r\n\r\n";
    const ClientResponse echoed = oneShot(port, tagged);
    EXPECT_EQ(echoed.headers.at("x-trace-id"), "client-tag-7");
}

TEST(Serve, ResponseBytesIdenticalWithTracingEnabled)
{
    TestServer server;
    const std::uint16_t port = server.port();
    const std::string analyze_raw =
        postRequest("/analyze?dataflow=C-P", tinyNetwork(8));
    const std::string tune_raw =
        postRequest("/tune?objective=edp", tinyNetwork(8));

    const ClientResponse analyze_off = oneShot(port, analyze_raw);
    const ClientResponse tune_off = oneShot(port, tune_raw);
    const ClientResponse health_off =
        oneShot(port, getRequest("/healthz"));
    ASSERT_EQ(analyze_off.status, 200);
    ASSERT_EQ(tune_off.status, 200);

    obs::Tracer::instance().start();
    const ClientResponse analyze_on = oneShot(port, analyze_raw);
    const ClientResponse tune_on = oneShot(port, tune_raw);
    const ClientResponse health_on =
        oneShot(port, getRequest("/healthz"));
    obs::Tracer::instance().stop();
    obs::disableMode(obs::kTiming | obs::kSpans);

    // The span capture must be observable (the server's dispatch
    // path records http.* spans) yet leave every body byte intact.
    EXPECT_GT(obs::Tracer::instance().eventCount(), 0u);
    EXPECT_EQ(analyze_on.status, 200);
    EXPECT_EQ(analyze_on.body, analyze_off.body);
    EXPECT_EQ(tune_on.body, tune_off.body);
    EXPECT_EQ(health_on.body, health_off.body);
}

// ---------------------------------------------------------------- //
//                Concurrent mixed-shape storm (accept)             //
// ---------------------------------------------------------------- //

TEST(Serve, ConcurrentStormBytesMatchSingleThreadedReference)
{
    constexpr int kClients = 8;
    constexpr int kRounds = 3;

    // Reference bodies from the direct, single-threaded handler path.
    std::vector<std::string> dsl;
    std::vector<std::string> expected;
    const QueryParams params{{"dataflow", "C-P"}};
    for (int i = 0; i < kClients; ++i) {
        dsl.push_back(tinyNetwork(4 + 4 * i));
        expected.push_back(referenceAnalyze(dsl.back(), params));
    }

    ServeOptions options;
    options.worker_threads = 4;
    // This test pins PIPELINE stage-cache reuse across rounds; with
    // the result cache on, repeat rounds would short-circuit above
    // the pipeline and the layer-hit assertion below would see 0.
    options.result_cache_entries = 0;
    TestServer server(options);
    const std::uint16_t port = server.port();

    std::mutex mutex;
    std::condition_variable cv;
    int ready = 0;
    bool go = false;
    std::vector<std::string> failures;

    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            {
                // Start barrier: all clients fire at once so at
                // least kClients requests are in flight together.
                std::unique_lock<std::mutex> lock(mutex);
                if (++ready == kClients) {
                    go = true;
                    cv.notify_all();
                } else {
                    cv.wait(lock, [&] { return go; });
                }
            }
            const int fd = connectLoopback(port);
            std::string error;
            if (fd < 0) {
                error = "connect failed";
            } else {
                const std::string raw =
                    postRequest("/analyze?dataflow=C-P", dsl[i]);
                for (int round = 0; round < kRounds; ++round) {
                    sendAll(fd, raw);
                    const ClientResponse r = readResponse(fd);
                    if (r.status != 200) {
                        error = "status " +
                                std::to_string(r.status);
                        break;
                    }
                    if (r.body != expected[i]) {
                        error = "body mismatch on client " +
                                std::to_string(i);
                        break;
                    }
                }
                ::close(fd);
            }
            if (!error.empty()) {
                std::lock_guard<std::mutex> lock(mutex);
                failures.push_back(error);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_TRUE(failures.empty())
        << failures.size() << " client(s) failed: " << failures[0];

    // Every byte served concurrently equalled the single-threaded
    // reference; the warm caches must show up in /stats.
    const std::string stats =
        oneShot(port, getRequest("/stats")).body;
    EXPECT_GE(jsonField(stats, "layer", "hits"),
              static_cast<std::uint64_t>(kClients * (kRounds - 1)));
}

// ---------------------------------------------------------------- //
//                      Backpressure: 503 path                      //
// ---------------------------------------------------------------- //

TEST(Serve, SaturatedQueueAnswers503WithRetryAfter)
{
    ServeOptions options;
    options.worker_threads = 1;
    options.queue_capacity = 1; // one in-flight request, no queue
    options.deadline_ms = 60000; // the deadline is not under test
    TestServer server(options);
    const std::uint16_t port = server.port();

    const std::string raw = postRequest("/analyze", heavyPayload());
    constexpr int kClients = 6;

    std::mutex mutex;
    std::condition_variable cv;
    int ready = 0;
    bool go = false;
    std::vector<ClientResponse> responses(kClients);

    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            {
                std::unique_lock<std::mutex> lock(mutex);
                if (++ready == kClients) {
                    go = true;
                    cv.notify_all();
                } else {
                    cv.wait(lock, [&] { return go; });
                }
            }
            responses[i] = oneShot(port, raw);
        });
    }
    for (std::thread &t : clients)
        t.join();

    int ok = 0;
    int rejected = 0;
    for (const ClientResponse &r : responses) {
        if (r.status == 200) {
            ++ok;
        } else if (r.status == 503) {
            ++rejected;
            // Backpressure tells the client when to come back.
            EXPECT_EQ(r.headers.count("retry-after"), 1u);
            EXPECT_NE(r.body.find("\"error\""), std::string::npos);
        } else {
            ADD_FAILURE() << "unexpected status " << r.status;
        }
    }
    EXPECT_GE(ok, 1);
    EXPECT_GE(rejected, 1);

    const std::string stats =
        oneShot(port, getRequest("/stats")).body;
    EXPECT_GE(jsonField(stats, "responses", "rejected_503"),
              static_cast<std::uint64_t>(rejected));
    EXPECT_GE(jsonField(stats, "queue", "rejected"),
              static_cast<std::uint64_t>(rejected));
    EXPECT_EQ(jsonField(stats, "queue", "capacity"), 1u);
}

// ---------------------------------------------------------------- //
//                      Deadline: 408 path                          //
// ---------------------------------------------------------------- //

TEST(Serve, DeadlineExpiryAnswers408ThenRecovers)
{
    // Both sides clear the deadline by a wide margin, so scheduling on
    // a loaded host cannot flip either outcome: the slow request (an
    // 8000-triple crossval, about 0.5 s of one core) runs about 10x
    // the deadline, the quick one (one tiny layer under C-P, about
    // 0.15 ms) about 1/300 of it.
    ServeOptions options;
    options.worker_threads = 2;
    options.deadline_ms = 50;
    TestServer server(options);
    const std::uint16_t port = server.port();

    const ClientResponse slow = oneShot(
        port, postRequest("/crossval?triples=8000", tinyNetwork(8)));
    EXPECT_EQ(slow.status, 408) << slow.body;
    EXPECT_NE(slow.body.find("\"error\""), std::string::npos);

    // The server keeps serving: a cheap request completes within the
    // same deadline on the worker the slow one does not hold.
    const std::string quick =
        postRequest("/analyze?dataflow=C-P", tinyNetwork(8));
    std::vector<int> statuses;
    bool recovered = false;
    for (int attempt = 0; attempt < 100 && !recovered; ++attempt) {
        const ClientResponse r = oneShot(port, quick);
        statuses.push_back(r.status);
        if (r.status == 200)
            recovered = true;
        else
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
    }
    EXPECT_TRUE(recovered) << "statuses of the quick attempts: "
                           << testing::PrintToString(statuses);

    const std::string stats =
        oneShot(port, getRequest("/stats")).body;
    EXPECT_GE(jsonField(stats, "responses", "deadline_408"), 1u);
}

// ---------------------------------------------------------------- //
//                    Keep-alive and graceful drain                 //
// ---------------------------------------------------------------- //

TEST(Serve, KeepAliveServesSequentialRequestsOnOneConnection)
{
    TestServer server;
    const int fd = connectLoopback(server.port());
    ASSERT_GE(fd, 0);

    sendAll(fd, getRequest("/healthz"));
    EXPECT_EQ(readResponse(fd).status, 200);

    sendAll(fd, postRequest("/analyze?dataflow=C-P", tinyNetwork(8)));
    EXPECT_EQ(readResponse(fd).status, 200);

    // "Connection: close" is honoured: response, then EOF.
    sendAll(fd, getRequest("/healthz", /*keep_alive=*/false));
    EXPECT_EQ(readResponse(fd).status, 200);
    char tmp[1];
    EXPECT_EQ(::recv(fd, tmp, sizeof(tmp), 0), 0);
    ::close(fd);
}

TEST(Serve, GracefulDrainStopsAcceptingAndRunReturns)
{
    auto server = std::make_unique<TestServer>();
    const std::uint16_t port = server->port();
    EXPECT_EQ(oneShot(port, getRequest("/healthz")).status, 200);

    server->stop(); // requestStop() + join: run() must return
    EXPECT_LT(connectLoopback(port), 0);
}

TEST(Serve, HealthzReports503WhileDraining)
{
    ServeOptions options;
    // A generous linger window keeps the already-open keep-alive
    // connection serviceable long enough to probe drain behaviour.
    options.drain_linger_ms = 10000;
    auto server = std::make_unique<TestServer>(options);
    const std::uint16_t port = server->port();

    const int fd = connectLoopback(port);
    ASSERT_GE(fd, 0);
    sendAll(fd, getRequest("/healthz"));
    EXPECT_EQ(readResponse(fd).status, 200);

    server->beginStop();

    // The open connection gets one last request during the linger
    // window; a draining server tells load balancers to back off.
    sendAll(fd, getRequest("/healthz"));
    const ClientResponse draining = readResponse(fd);
    EXPECT_EQ(draining.status, 503);
    EXPECT_EQ(draining.body, healthzJson(/*draining=*/true));
    EXPECT_NE(draining.body.find("\"status\":\"draining\""),
              std::string::npos);
    EXPECT_EQ(draining.headers.count("retry-after"), 1u);
    // Responses during a drain close the connection.
    char tmp[1];
    EXPECT_EQ(::recv(fd, tmp, sizeof(tmp), 0), 0);
    ::close(fd);

    server->stop();
}

// ---------------------------------------------------------------- //
//                  Slow-loris read-deadline hardening              //
// ---------------------------------------------------------------- //

TEST(Serve, SlowLorisSenderGets408AndFreesItsSlot)
{
    ServeOptions options;
    options.deadline_ms = 150;
    options.max_connections = 1; // the loris holds the ONLY slot
    TestServer server(options);
    const std::uint16_t port = server.port();

    // Trickle half a request and stall: the read deadline must fire
    // even though no request ever completes parsing.
    const int fd = connectLoopback(port);
    ASSERT_GE(fd, 0);
    sendAll(fd, "POST /analyze HTTP/1.1\r\nHost: t\r\n");
    const ClientResponse starved = readResponse(fd);
    EXPECT_EQ(starved.status, 408);
    EXPECT_NE(starved.body.find("\"error\""), std::string::npos);
    // The server closes the connection after the 408.
    char tmp[1];
    EXPECT_EQ(::recv(fd, tmp, sizeof(tmp), 0), 0);
    ::close(fd);

    // The connection slot is free again: with max_connections = 1,
    // a healthy client can only get through if the loris released
    // it (reaping runs on the accept loop, so retry briefly — any
    // single probe can race the reap and see "too many connections").
    std::string stats;
    for (int attempt = 0; attempt < 100 && stats.empty(); ++attempt) {
        const ClientResponse r = oneShot(port, getRequest("/stats"));
        if (r.status == 200)
            stats = r.body;
        else
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
    }
    ASSERT_FALSE(stats.empty()) << "slot never freed after the 408";
    EXPECT_GE(jsonField(stats, "responses", "deadline_408"), 1u);
}

// ---------------------------------------------------------------- //
//                     Async job API (tentpole)                     //
// ---------------------------------------------------------------- //

TEST(Serve, JobsLifecycleServesSyncBytesAndWarmsSharedCache)
{
    TestServer server;
    const std::uint16_t port = server.port();
    const std::string dsl = tinyNetwork(8);
    const std::string expected =
        referenceAnalyze(dsl, QueryParams{{"dataflow", "C-P"}});

    // Submit: 202 + a content-addressed id.
    const ClientResponse accepted = oneShot(
        port, postRequest("/jobs/analyze?dataflow=C-P", dsl));
    ASSERT_EQ(accepted.status, 202) << accepted.body;
    EXPECT_NE(accepted.body.find("\"state\":\"queued\""),
              std::string::npos);
    const std::string id = jsonString(accepted.body, "id");
    ASSERT_EQ(id.size(), 17u) << id; // "j" + 16 hex digits

    // Poll to completion: the terminal body is the sync endpoint's
    // response VERBATIM — which equals the direct handler call (the
    // CLI's --format json path) byte for byte.
    const ClientResponse done = waitJob(port, id);
    ASSERT_EQ(done.status, 200) << done.body;
    EXPECT_EQ(done.body, expected);

    // The job warmed the shared result cache: the same request on
    // the SYNC endpoint is now a cache hit with identical bytes.
    const ClientResponse sync = oneShot(
        port, postRequest("/analyze?dataflow=C-P", dsl));
    ASSERT_EQ(sync.status, 200);
    EXPECT_EQ(sync.body, expected);
    EXPECT_EQ(sync.headers.at("x-result-cache"), "hit");

    // Identical resubmission is idempotent: 200 (not 202), the same
    // id, no second evaluation.
    const ClientResponse again = oneShot(
        port, postRequest("/jobs/analyze?dataflow=C-P", dsl));
    EXPECT_EQ(again.status, 200);
    EXPECT_EQ(jsonString(again.body, "id"), id);

    // GET /jobs lists the resident job; /stats carries the story.
    const ClientResponse list = oneShot(port, getRequest("/jobs"));
    EXPECT_EQ(list.status, 200);
    EXPECT_NE(list.body.find("\"id\":\"" + id + "\""),
              std::string::npos);
    const std::string stats =
        oneShot(port, getRequest("/stats")).body;
    EXPECT_EQ(jsonField(stats, "jobs", "submitted"), 1u);
    EXPECT_EQ(jsonField(stats, "jobs", "resubmitted"), 1u);
    EXPECT_EQ(jsonField(stats, "jobs", "completed"), 1u);
    EXPECT_GE(jsonField(stats, "result_cache", "hits"), 1u);

    // DELETE removes the terminal job; the id then 404s.
    EXPECT_EQ(oneShot(port, "DELETE /jobs/" + id +
                                " HTTP/1.1\r\nHost: t\r\n\r\n")
                  .status,
              200);
    EXPECT_EQ(oneShot(port, getRequest("/jobs/" + id)).status, 404);
}

TEST(Serve, JobsMatchSyncBytesForEveryEndpoint)
{
    TestServer server;
    const std::uint16_t port = server.port();
    const std::string dsl = tinyNetwork(6);
    const std::vector<std::string> targets = {
        "/dse?dataflow=C-P",
        "/tune?objective=edp",
        "/simulate?dataflow=C-P",
    };
    for (const std::string &t : targets) {
        const ClientResponse sync =
            oneShot(port, postRequest(t, dsl));
        ASSERT_EQ(sync.status, 200) << t << " " << sync.body;
        const ClientResponse accepted =
            oneShot(port, postRequest("/jobs" + t, dsl));
        ASSERT_EQ(accepted.status, 202) << t << " " << accepted.body;
        const ClientResponse done =
            waitJob(port, jsonString(accepted.body, "id"));
        ASSERT_EQ(done.status, 200) << t << " " << done.body;
        EXPECT_EQ(done.body, sync.body) << t;
    }
}

TEST(Serve, JobsRoutingErrorsAndFailedJob)
{
    TestServer server;
    const std::uint16_t port = server.port();

    // Unknown job endpoint and unknown id.
    const ClientResponse bad_ep =
        oneShot(port, postRequest("/jobs/nope", "x"));
    EXPECT_EQ(bad_ep.status, 404);
    EXPECT_NE(bad_ep.body.find("analyze|dse|tune|simulate|crossval"),
              std::string::npos);
    EXPECT_EQ(oneShot(port, getRequest("/jobs/jdeadbeef")).status,
              404);
    EXPECT_EQ(oneShot(port, postRequest("/jobs", "x")).status, 405);

    // A failing request fails the JOB, preserving the sync error
    // status and body on poll.
    const ClientResponse accepted =
        oneShot(port, postRequest("/jobs/analyze", "Nonsense ("));
    ASSERT_EQ(accepted.status, 202);
    const std::string id = jsonString(accepted.body, "id");
    const ClientResponse failed = waitJob(port, id);
    EXPECT_EQ(failed.status, 400);
    EXPECT_NE(failed.body.find("\"error\""), std::string::npos);
    const std::string stats =
        oneShot(port, getRequest("/stats")).body;
    EXPECT_EQ(jsonField(stats, "jobs", "failed"), 1u);
}

TEST(ServeRobustness, HostileJobIdsAnswer404WithAJsonError)
{
    // Job ids come straight off the request line. Whatever their
    // bytes, every method under /jobs/ must end in a 404 with a JSON
    // error body, never a 500 or a dropped connection.
    TestServer server;
    const std::uint16_t port = server.port();
    const std::string ids[] = {
        "",
        "%00",
        "j%00x",
        "j" + std::string(7999, 'a'),
        "..%2F..%2Fetc",
        "%ZZ",
        "%22%5C%0A",
        "j\xc3\xa9\xe2\x9c\x93",
    };
    for (const std::string &id : ids) {
        const std::string target = "/jobs/" + id;
        for (const std::string &raw :
             {getRequest(target),
              "DELETE " + target + " HTTP/1.1\r\nHost: t\r\n\r\n",
              postRequest(target, "x")}) {
            const ClientResponse r = oneShot(port, raw);
            const std::string method = raw.substr(0, raw.find(' '));
            EXPECT_EQ(r.status, 404) << method << " " << id.size()
                                     << " bytes: " << r.body;
            const auto type = r.headers.find("content-type");
            ASSERT_NE(type, r.headers.end()) << method;
            EXPECT_EQ(type->second, "application/json") << method;
            ASSERT_FALSE(r.body.empty()) << method;
            EXPECT_EQ(r.body.rfind("{\"error\":\"", 0), 0u) << method;
            EXPECT_EQ(r.body.back(), '}') << method;
        }
    }
    // The server is still healthy afterwards.
    EXPECT_EQ(oneShot(port, getRequest("/healthz")).status, 200);
}

TEST(Serve, CrossvalEndpointSyncAndAsyncMatchDirectHandler)
{
    // The randomized sweep is seeded and thread-invariant, so the
    // server body must equal the direct handler call byte for byte
    // at any worker count — sync and via the job API.
    const QueryParams params{{"seed", "3"}, {"triples", "4"}};
    const std::string expected = crossvalRunJson(params, 1);

    TestServer server;
    const std::uint16_t port = server.port();
    const ClientResponse sync = oneShot(
        port, postRequest("/crossval?seed=3&triples=4", ""));
    ASSERT_EQ(sync.status, 200) << sync.body;
    EXPECT_EQ(sync.body, expected);

    const ClientResponse accepted = oneShot(
        port, postRequest("/jobs/crossval?seed=3&triples=4", ""));
    ASSERT_EQ(accepted.status, 202) << accepted.body;
    const ClientResponse done =
        waitJob(port, jsonString(accepted.body, "id"));
    ASSERT_EQ(done.status, 200) << done.body;
    EXPECT_EQ(done.body, expected);

    // Bad parameters surface as a 400, sync path: counts parse
    // strictly (no exponent, sign, whitespace, or out-of-range).
    for (const char *bad : {"triples=0", "triples=1e30", "triples=nan",
                            "triples=inf", "triples=-1", "triples=4.0",
                            "seed=%204", "threads=12abc"})
        EXPECT_EQ(oneShot(port, postRequest(std::string("/crossval?") +
                                                bad,
                                            ""))
                      .status,
                  400)
            << bad;
}

// ---------------------------------------------------------------- //
//                Query knobs end in 200 or 400                     //
// ---------------------------------------------------------------- //

TEST(Serve, QueryKnobsEndIn200Or400)
{
    TestServer server;
    const std::uint16_t port = server.port();
    const std::string dsl = tinyNetwork(8);

    // Reals must be finite and positive (the CLI's rule), switches
    // are `on` or absent, and counts stay in range.
    const char *const rejected[] = {
        "/dse?dataflow=C-P&area=nan",
        "/dse?dataflow=C-P&area=inf",
        "/dse?dataflow=C-P&area=-1",
        "/dse?dataflow=C-P&area=0",
        "/dse?dataflow=C-P&power=nan",
        "/dse?dataflow=C-P&power=-inf",
        "/dse?dataflow=C-P&exact=off",
        "/dse?dataflow=C-P&exact=",
        "/simulate?dataflow=C-P&max_steps=nan",
        "/simulate?dataflow=C-P&max_steps=inf",
        "/simulate?dataflow=C-P&max_steps=-1",
        "/simulate?dataflow=C-P&exact=off",
        "/simulate?dataflow=C-P&exact=0",
        "/tune?enforce_l1=1",
        "/tune?exact=true",
        "/tune?mode=joint&area=nan",
        "/tune?area=nan",
        "/tune?mode=network&power=0",
        "/crossval?max_steps=nan",
        "/crossval?max_steps=-1",
        "/crossval?seed=-1",
        "/crossval?triples=100001",
        "/crossval?triples=18446744073709551615",
        // Over mapper::kMaxCandidates: refused before it allocates.
        "/tune?tiles=1,2,3,4,5,6,7,8&act_tiles=1,2,3,4,5,6,7,8,9,10,11,"
        "12,13,14",
    };
    for (const char *target : rejected) {
        const ClientResponse r = oneShot(port, postRequest(target, dsl));
        EXPECT_EQ(r.status, 400) << target << ": " << r.body;
        EXPECT_NE(r.body.find("\"error\""), std::string::npos) << target;
    }

    // The documented forms still answer 200, with the bodies of the
    // defaults they spell out.
    const auto ok = [&](const std::string &target) {
        const ClientResponse r = oneShot(port, postRequest(target, dsl));
        EXPECT_EQ(r.status, 200) << target << ": " << r.body;
        return r.body;
    };
    EXPECT_EQ(ok("/dse?dataflow=C-P&area=16&power=450"),
              ok("/dse?dataflow=C-P"));
    EXPECT_EQ(ok("/simulate?dataflow=C-P&exact=on&max_steps=1e12"),
              referenceSimulate(dsl, QueryParams{{"dataflow", "C-P"},
                                                 {"exact", "on"}}));
    EXPECT_EQ(ok("/crossval?seed=7&triples=3"), ok("/crossval?triples=3"));
    ok("/tune?enforce_l1=on&exact=on&top_k=2&clusters=4&tiles=1&"
       "act_tiles=1");

    // Seed 0 runs, as `maestro crossval --seed 0` does.
    crossval::CrossvalOptions zero;
    zero.seed = 0;
    zero.triples = 3;
    EXPECT_EQ(ok("/crossval?seed=0&triples=3"),
              crossval::crossvalJson(zero, crossval::runCrossval(zero)));
}

TEST(Serve, KnobErrorsNameTheCallersSpelling)
{
    // The parsing the server and the CLI share names each knob the way
    // its caller spells it: the server's query parameter, the CLI's
    // flag.
    const auto errorOf = [](auto &&call) -> std::string {
        try {
            call();
        } catch (const Error &e) {
            return e.what();
        }
        return "(no error)";
    };

    struct KnobCase
    {
        const char *key;
        const char *value;
        const char *query_error;
        const char *flag_error;
    };
    const KnobCase knobs[] = {
        {"top_k", "0", "query parameter 'top_k' must be a positive integer",
         "--top-k must be a positive integer"},
        {"threads", "4abc",
         "query parameter 'threads' must be a positive integer",
         "--threads must be a positive integer"},
        {"clusters", "4abc",
         "query parameter 'clusters': '4abc' is not a comma-separated "
         "list of positive integers",
         "--clusters: '4abc' is not a comma-separated list of positive "
         "integers"},
        {"tiles", "1,,8",
         "query parameter 'tiles': '1,,8' is not a comma-separated list "
         "of positive integers",
         "--tiles: '1,,8' is not a comma-separated list of positive "
         "integers"},
        {"act_tiles", "0",
         "query parameter 'act_tiles': '0' is not a comma-separated list "
         "of positive integers",
         "--act-tiles: '0' is not a comma-separated list of positive "
         "integers"},
    };
    for (const KnobCase &c : knobs) {
        const QueryParams params{{c.key, c.value}};
        EXPECT_EQ(errorOf([&] { tuneQuery(params, 4); }), c.query_error);
        EXPECT_EQ(errorOf([&] {
                      tuneQuery(params, 4, KnobSpelling::Flag);
                  }),
                  c.flag_error);
    }

    RequestInputs alexnet;
    alexnet.network = zoo::alexnet();
    for (const char *endpoint : {"dse", "tune", "simulate"}) {
        EXPECT_EQ(errorOf([&] { singleLayer(alexnet, endpoint); }),
                  std::string(endpoint) +
                      " needs ?layer=NAME when the network has 8 layers");
        EXPECT_EQ(errorOf([&] {
                      singleLayer(alexnet, endpoint, KnobSpelling::Flag);
                  }),
                  std::string(endpoint) +
                      " needs --layer NAME when the network has 8 layers");
    }
}

// ---------------------------------------------------------------- //
//          One request path: an evaluation, then its render         //
// ---------------------------------------------------------------- //

/** A two-level dataflow whose sizes only some layers bind: its K map
 *  is Sz(S) - 2 wide and its cluster Sz(R) - 2. */
Dataflow
shapeSensitiveDataflow()
{
    return Dataflow(
        "probe",
        {Directive::spatial(Dim::K, SizeExpr::sizeOf(Dim::S, -2),
                            SizeExpr::of(1)),
         Directive::cluster(SizeExpr::sizeOf(Dim::R, -2)),
         Directive::spatial(Dim::C, SizeExpr::of(1), SizeExpr::of(1))});
}

/** A conv layer with an R x S filter. */
Layer
filterLayer(const char *name, Count r, Count s)
{
    DimMap<Count> d(1);
    d[Dim::K] = 8;
    d[Dim::C] = 4;
    d[Dim::R] = r;
    d[Dim::S] = s;
    d[Dim::Y] = 16;
    d[Dim::X] = 16;
    return Layer(name, OpType::Conv2D, d);
}

TEST(ServeRun, AnalyzeReportsTheFirstFailureInRequestOrder)
{
    // Two layers fail under the probe dataflow, with different errors:
    // a 3x2 filter maps K zero wide, a 2x3 filter clusters zero PEs.
    // Whichever job fails first on the clock, the run reports the
    // first failing (dataflow, layer) in request order.
    const auto errorOf = [](const RequestInputs &in,
                            std::size_t threads) -> std::string {
        try {
            analyzeRun(in, std::make_shared<AnalysisPipeline>(),
                       EnergyModel(), threads);
        } catch (const Error &e) {
            return e.what();
        }
        return "(no error)";
    };
    const auto inputs = [](std::vector<Layer> layers) {
        RequestInputs in;
        in.network = Network("probed");
        for (Layer &layer : layers)
            in.network.addLayer(std::move(layer));
        in.dataflows = {dataflows::byName("C-P"),
                        shapeSensitiveDataflow()};
        return in;
    };
    const Layer ok = filterLayer("ok", 3, 3);
    const Layer narrow_map = filterLayer("narrow_map", 3, 2);
    const Layer no_cluster = filterLayer("no_cluster", 2, 3);
    const RequestInputs map_first = inputs({ok, narrow_map, no_cluster});
    const RequestInputs cluster_first =
        inputs({ok, no_cluster, narrow_map});

    const std::string map_error = errorOf(map_first, 1);
    const std::string cluster_error = errorOf(cluster_first, 1);
    EXPECT_NE(map_error.find("map size for K evaluates to 0"),
              std::string::npos)
        << map_error;
    EXPECT_NE(cluster_error.find("cluster size evaluates to 0"),
              std::string::npos)
        << cluster_error;
    for (int round = 0; round < 8; ++round) {
        EXPECT_EQ(errorOf(map_first, 4), map_error);
        EXPECT_EQ(errorOf(cluster_first, 4), cluster_error);
    }
}

TEST(ServeRun, AnalyzeRunRendersTheHandlersBytes)
{
    const RequestInputs in = resolveRequest(
        frontend::serialize(zoo::vgg16()), {},
        AcceleratorConfig::paperStudy());
    const std::string handler = analyzeJson(
        in, std::make_shared<AnalysisPipeline>(), EnergyModel());
    for (const std::size_t threads : {1, 4}) {
        EXPECT_EQ(analyzeJson(in, analyzeRun(in,
                                             std::make_shared<
                                                 AnalysisPipeline>(),
                                             EnergyModel(), threads)),
                  handler)
            << threads << " threads";
    }
}

TEST(ServeRun, DseJsonIsTheSameAtOneAndThreeThreads)
{
    const QueryParams params{{"layer", "CONV2"}, {"dataflow", "KC-P"}};
    const RequestInputs in =
        resolveRequest(frontend::serialize(zoo::vgg16()), params,
                       AcceleratorConfig::paperStudy());
    const auto bodyAt = [&](std::size_t threads) {
        return dseJson(in, dseRun(in, params,
                                  std::make_shared<AnalysisPipeline>(),
                                  EnergyModel(), threads));
    };
    const std::string serial = bodyAt(1);
    EXPECT_EQ(bodyAt(3), serial);
    EXPECT_EQ(serial, dseJson(in, params,
                              std::make_shared<AnalysisPipeline>(),
                              EnergyModel()));
}

// ---------------------------------------------------------------- //
//                Per-client sync budgets (429 path)                //
// ---------------------------------------------------------------- //

TEST(Serve, PerClientSyncBudgetAnswers429)
{
    ServeOptions options;
    options.worker_threads = 1;
    options.queue_capacity = 8; // global bound NOT under test
    options.client_share = 1;   // one in-flight request per client
    options.deadline_ms = 60000;
    TestServer server(options);
    const std::uint16_t port = server.port();

    // A slow request from client "alice" occupies her only slot.
    const std::string slow_raw =
        postRequest("/simulate?dataflow=C-P&exact=on", midNetwork(),
                    "X-Client-Id: alice");
    std::thread first([&] {
        const ClientResponse r = oneShot(port, slow_raw);
        EXPECT_EQ(r.status, 200) << r.body;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    // Her second request is over budget: 429, not 503 — the global
    // queue still has room for other tenants.
    const ClientResponse over = oneShot(port, slow_raw);
    first.join();
    if (over.status == 429) {
        EXPECT_NE(over.body.find("alice"), std::string::npos);
        ASSERT_EQ(over.headers.count("retry-after"), 1u);
        EXPECT_EQ(over.headers.at("retry-after"), "1");
        const std::string stats =
            oneShot(port, getRequest("/stats")).body;
        EXPECT_GE(jsonField(stats, "responses", "throttled_429"),
                  1u);
        EXPECT_GE(jsonField(stats, "queue", "rejected_client"), 1u);
    } else {
        // The first evaluation can (rarely) finish within the
        // stagger on a loaded machine; then the repeat is a result
        // cache hit — also correct, just not the path under test.
        EXPECT_EQ(over.status, 200);
        EXPECT_EQ(over.headers.at("x-result-cache"), "hit");
    }
}

// ---------------------------------------------------------------- //
//           Fleet observability (shared metrics segment)           //
// ---------------------------------------------------------------- //

/** A unique throwaway path for access-log tests. */
std::string
tempLogPath(const char *tag)
{
    const char *base = ::getenv("TMPDIR");
    std::string path = base ? base : "/tmp";
    path += "/maestro_serve_";
    path += tag;
    path += "_";
    path += std::to_string(::getpid());
    path += ".jsonl";
    std::remove(path.c_str());
    return path;
}

TEST(ServeFleet, LaneSumsMatchASingleServerAndEveryWorkerAgrees)
{
    // Two servers sharing one 2-lane segment: the in-process
    // analogue of the `--workers 2` forked fleet (same pre-fork
    // registration, same per-lane counting, same render path).
    auto segment = obs::SharedMetrics::create(2);
    ServeOptions lane0;
    lane0.shared_metrics = segment;
    lane0.worker_lane = 0;
    ServeOptions lane1;
    lane1.shared_metrics = segment;
    lane1.worker_lane = 1;
    TestServer w0(lane0);
    TestServer w1(lane1);
    TestServer single; // reference: the same traffic, one process

    const std::string raw =
        postRequest("/analyze?dataflow=C-P", tinyNetwork(8));
    const ClientResponse a = oneShot(w0.port(), raw);
    const ClientResponse b = oneShot(w0.port(), raw);
    const ClientResponse c = oneShot(w1.port(), raw);
    ASSERT_EQ(a.status, 200);
    ASSERT_EQ(b.status, 200);
    ASSERT_EQ(c.status, 200);
    // Landing on a different lane never changes the bytes.
    EXPECT_EQ(a.body, c.body);
    EXPECT_EQ(oneShot(w1.port(), getRequest("/healthz")).status, 200);

    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(oneShot(single.port(), raw).status, 200);
    EXPECT_EQ(oneShot(single.port(), getRequest("/healthz")).status,
              200);

    // Any worker renders the whole fleet: per-lane samples plus the
    // worker="all" sum, which equals the single-server total.
    const std::string fleet0 =
        oneShot(w0.port(), getRequest("/metrics")).body;
    const std::string fleet1 =
        oneShot(w1.port(), getRequest("/metrics")).body;
    const std::string ref =
        oneShot(single.port(), getRequest("/metrics")).body;
    EXPECT_NE(
        ref.find("maestro_requests_total{endpoint=\"analyze\"} 3"),
        std::string::npos);
    for (const std::string *body : {&fleet0, &fleet1}) {
        EXPECT_NE(body->find("maestro_requests_total{endpoint="
                             "\"analyze\",worker=\"0\"} 2"),
                  std::string::npos);
        EXPECT_NE(body->find("maestro_requests_total{endpoint="
                             "\"analyze\",worker=\"1\"} 1"),
                  std::string::npos);
        EXPECT_NE(body->find("maestro_requests_total{endpoint="
                             "\"analyze\",worker=\"all\"} 3"),
                  std::string::npos);
        EXPECT_NE(body->find("maestro_requests_total{endpoint="
                             "\"healthz\",worker=\"1\"} 1"),
                  std::string::npos);
        EXPECT_NE(body->find("maestro_request_latency_us_count{"
                             "worker=\"all\"}"),
                  std::string::npos);
    }

    // GET /stats gains a fleet object with per-worker breakdown.
    const std::string stats =
        oneShot(w0.port(), getRequest("/stats")).body;
    EXPECT_NE(stats.find("\"fleet\":{\"workers\":2,\"lane\":0,"),
              std::string::npos);
    EXPECT_NE(stats.find("\"per_worker\":["), std::string::npos);
}

TEST(ServeFleet, LibraryInstrumentsCountInTheLaneThatRanThem)
{
    // A DSE sweep counts in the lane of the worker that ran it, sync
    // on a connection thread or async on a pool thread, so every
    // worker and the status-port view render the same fleet totals.
    auto segment = obs::SharedMetrics::create(2);
    ServeOptions lane0;
    lane0.shared_metrics = segment;
    lane0.worker_lane = 0;
    ServeOptions lane1;
    lane1.shared_metrics = segment;
    lane1.worker_lane = 1;
    TestServer w0(lane0);
    TestServer w1(lane1);

    const std::string dsl = tinyNetwork(8);
    ASSERT_EQ(
        oneShot(w0.port(), postRequest("/dse?dataflow=C-P", dsl)).status,
        200);
    const ClientResponse job =
        oneShot(w1.port(), postRequest("/jobs/dse?dataflow=C-P", dsl));
    ASSERT_EQ(job.status, 202) << job.body;
    ASSERT_EQ(waitJob(w1.port(), jsonString(job.body, "id")).status, 200);

    const std::string bodies[] = {
        oneShot(w0.port(), getRequest("/metrics")).body,
        oneShot(w1.port(), getRequest("/metrics")).body,
        fleet::metricsText(*segment, nullptr),
    };
    for (const std::string &body : bodies) {
        EXPECT_NE(body.find("maestro_dse_sweeps_total{worker=\"0\"} 1\n"),
                  std::string::npos);
        EXPECT_NE(body.find("maestro_dse_sweeps_total{worker=\"1\"} 1\n"),
                  std::string::npos);
        EXPECT_NE(
            body.find("maestro_dse_sweeps_total{worker=\"all\"} 2\n"),
            std::string::npos);
        EXPECT_NE(body.find("maestro_dse_explore_us_count{worker="
                            "\"all\"} 2\n"),
                  std::string::npos);
    }
}

TEST(ServeFleet, ClientIdsRenderEscapedOrFoldIntoOther)
{
    // Label values escape `"` and `\` and keep a TAB as is (the text
    // format allows it). An id whose series name would exceed the
    // segment's name cap or hold a NUL byte folds into
    // client="other", as does any id past --metrics-max-clients.
    ServeOptions options;
    options.metrics_max_clients = 3;
    TestServer server(options);
    const std::uint16_t port = server.port();

    const std::string long_id(200, 'L');
    const struct
    {
        std::string id;
        std::string series; ///< rendered label value; "" = folded
    } rows[] = {
        {long_id, ""}, // first, while the cap still has room
        {std::string("nul\0id", 6), ""},
        {"q\"uote", "q\\\"uote"},
        {"back\\slash", "back\\\\slash"},
        {"t\tab", "t\tab"},
        {"late", ""}, // past the cap of 3
    };
    for (const auto &row : rows)
        ASSERT_EQ(oneShot(port, "GET /healthz HTTP/1.1\r\nHost: t\r\n"
                                "X-Client-Id: " +
                                    row.id + "\r\n\r\n")
                      .status,
                  200)
            << row.id;

    // Scrape as an admitted client, so the scrape adds no new id.
    const std::string body =
        oneShot(port, "GET /metrics HTTP/1.1\r\nHost: t\r\n"
                      "X-Client-Id: late\r\n\r\n")
            .body;
    for (const auto &row : rows) {
        if (row.series.empty()) {
            EXPECT_EQ(body.find("client=\"" + row.id), std::string::npos)
                << row.id;
            continue;
        }
        EXPECT_NE(body.find("maestro_client_requests_total{client=\"" +
                            row.series + "\"} 1\n"),
                  std::string::npos)
            << row.series;
    }
    // The 200-byte id, the NUL id, "late" and the scrape (as "late").
    EXPECT_NE(body.find("maestro_client_requests_total{client="
                        "\"other\"} 4\n"),
              std::string::npos);
    // Every sample line closes its label set before its value.
    std::size_t pos = 0;
    while (pos < body.size()) {
        const std::size_t eol = body.find('\n', pos);
        const std::string line = body.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#' ||
            line.find('{') == std::string::npos)
            continue;
        EXPECT_EQ(line[line.rfind(' ') - 1], '}') << line;
    }
}

TEST(ServeFleet, CacheOutcomeAndClientSeriesWithCardinalityCap)
{
    ServeOptions options;
    options.metrics_max_clients = 1; // carol takes the only slot
    TestServer server(options);
    const std::uint16_t port = server.port();

    const std::string raw = postRequest(
        "/analyze?dataflow=C-P", tinyNetwork(8), "X-Client-Id: carol");
    const ClientResponse miss = oneShot(port, raw);
    const ClientResponse hit = oneShot(port, raw);
    ASSERT_EQ(miss.status, 200);
    ASSERT_EQ(hit.status, 200);
    EXPECT_EQ(hit.headers.at("x-result-cache"), "hit");
    EXPECT_EQ(hit.body, miss.body);

    // A second client folds into client="other" past the cap; the
    // shared result cache still answers it with the same bytes.
    const ClientResponse folded = oneShot(
        port, postRequest("/analyze?dataflow=C-P", tinyNetwork(8),
                          "X-Client-Id: dave"));
    ASSERT_EQ(folded.status, 200);
    EXPECT_EQ(folded.headers.at("x-result-cache"), "hit");

    // Scrape as carol: a client-less request keys on the peer IP,
    // which would be a second over-cap client muddying the counts.
    const std::string body =
        oneShot(port, "GET /metrics HTTP/1.1\r\nHost: t\r\n"
                      "X-Client-Id: carol\r\n\r\n")
            .body;
    EXPECT_NE(body.find("maestro_endpoint_latency_us_count{cache="
                        "\"miss\",endpoint=\"analyze\"} 1"),
              std::string::npos);
    EXPECT_NE(body.find("maestro_endpoint_latency_us_count{cache="
                        "\"hit\",endpoint=\"analyze\"} 2"),
              std::string::npos);
    EXPECT_NE(
        body.find("maestro_client_requests_total{client=\"carol\"}"
                  " 3"),
        std::string::npos);
    EXPECT_NE(
        body.find("maestro_client_requests_total{client=\"other\"}"
                  " 1"),
        std::string::npos);
    EXPECT_NE(body.find("maestro_client_cache_hits_total{client="
                        "\"carol\"} 1"),
              std::string::npos);
    EXPECT_EQ(body.find("client=\"dave\""), std::string::npos);
}

TEST(ServeFleet, ThrottledJobSubmitsPinRetryAfterOne)
{
    ServeOptions options;
    options.worker_threads = 1;
    options.jobs_per_client = 1;
    options.deadline_ms = 60000;
    TestServer server(options);
    const std::uint16_t port = server.port();

    // A slow sync request holds the only pool thread, so alice's
    // first job stays queued while her second submit arrives.
    const std::string slow_raw =
        postRequest("/simulate?dataflow=C-P&exact=on", midNetwork(),
                    "X-Client-Id: bob");
    std::thread busy([&] {
        EXPECT_EQ(oneShot(port, slow_raw).status, 200);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    const ClientResponse first = oneShot(
        port, postRequest("/jobs/analyze?dataflow=C-P",
                          tinyNetwork(3), "X-Client-Id: alice"));
    const ClientResponse second = oneShot(
        port, postRequest("/jobs/analyze?dataflow=C-P",
                          tinyNetwork(4), "X-Client-Id: alice"));
    busy.join();
    if (second.status == 429) {
        ASSERT_EQ(second.headers.count("retry-after"), 1u);
        EXPECT_EQ(second.headers.at("retry-after"), "1");
        const std::string body =
            oneShot(port, getRequest("/metrics")).body;
        EXPECT_NE(body.find("maestro_jobs_total{event="
                            "\"rejected_client\"} 1"),
                  std::string::npos);
        EXPECT_NE(body.find("maestro_client_throttled_total{client="
                            "\"alice\"} 1"),
                  std::string::npos);
    } else {
        // The slow request can (rarely) finish inside the stagger;
        // then both submits fit the budget — not the path under
        // test, but still correct behaviour.
        EXPECT_EQ(first.status, 202);
    }
}

TEST(ServeFleet, JobRepliesEchoTheSubmitTraceInHeadersOnly)
{
    TestServer server;
    const std::uint16_t port = server.port();
    const std::string dsl = tinyNetwork(8);
    const std::string expected =
        referenceAnalyze(dsl, QueryParams{{"dataflow", "C-P"}});

    const ClientResponse accepted = oneShot(
        port, postRequest("/jobs/analyze?dataflow=C-P", dsl,
                          "X-Trace-Id: span-41"));
    ASSERT_EQ(accepted.status, 202) << accepted.body;
    EXPECT_EQ(accepted.headers.at("x-trace-id"), "span-41");
    EXPECT_EQ(accepted.headers.at("x-job-trace-id"), "span-41");
    // Bodies never carry the trace (byte-identity).
    EXPECT_EQ(accepted.body.find("span-41"), std::string::npos);

    // A poll from another client has its own trace id, but the
    // submitter's id rides along in X-Job-Trace-Id, and the terminal
    // body is still the sync endpoint's bytes verbatim.
    const std::string id = jsonString(accepted.body, "id");
    const ClientResponse done = waitJob(port, id);
    ASSERT_EQ(done.status, 200) << done.body;
    EXPECT_EQ(done.headers.at("x-job-trace-id"), "span-41");
    EXPECT_NE(done.headers.at("x-trace-id"), "span-41");
    EXPECT_EQ(done.body, expected);

    // Idempotent resubmits keep the FIRST submitter's trace.
    const ClientResponse again = oneShot(
        port, postRequest("/jobs/analyze?dataflow=C-P", dsl,
                          "X-Trace-Id: span-99"));
    EXPECT_EQ(again.status, 200);
    EXPECT_EQ(again.headers.at("x-trace-id"), "span-99");
    EXPECT_EQ(again.headers.at("x-job-trace-id"), "span-41");
}

TEST(ServeFleet, EventLogAndEventsTailShareTheRequestStory)
{
    const std::string path = tempLogPath("events");
    ServeOptions options;
    options.access_log = path;
    options.events_ring = 8;
    TestServer server(options);
    const std::uint16_t port = server.port();

    ASSERT_EQ(oneShot(port, getRequest("/healthz")).status, 200);
    const ClientResponse analyzed = oneShot(
        port, postRequest("/analyze?dataflow=C-P", tinyNetwork(8),
                          "X-Client-Id: erin"));
    ASSERT_EQ(analyzed.status, 200);
    const std::string trace = analyzed.headers.at("x-trace-id");

    // The ring tail renders oldest-first with the fields the file
    // carries: type, endpoint, client, and the response's trace id.
    const ClientResponse tail =
        oneShot(port, getRequest("/events?n=8"));
    ASSERT_EQ(tail.status, 200);
    EXPECT_EQ(tail.body.rfind("{\"count\":", 0), 0u) << tail.body;
    EXPECT_NE(tail.body.find("\"type\":\"request\""),
              std::string::npos);
    EXPECT_NE(tail.body.find("\"endpoint\":\"analyze\""),
              std::string::npos);
    EXPECT_NE(tail.body.find("\"client\":\"erin\""),
              std::string::npos);
    EXPECT_NE(tail.body.find("\"trace\":\"" + trace + "\""),
              std::string::npos);
    for (const char *bad :
         {"bogus", "12abc", "-1", "%20%207", "+7", "1e3",
          "99999999999999999999999"})
        EXPECT_EQ(
            oneShot(port, getRequest(std::string("/events?n=") + bad))
                .status,
            400)
            << bad;

    // /stats surfaces the log's counters.
    const std::string stats =
        oneShot(port, getRequest("/stats")).body;
    EXPECT_GE(jsonField(stats, "events", "lines"), 3u);

    // Stop to quiesce writers, then audit the file: every line is
    // one whole JSON object, and the analyze completion is there
    // with its trace id.
    server.stop();
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::string line;
    std::size_t lines = 0;
    bool saw_analyze = false;
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{') << line;
        EXPECT_EQ(line.back(), '}') << line;
        ++lines;
        if (line.find("\"endpoint\":\"analyze\"") !=
                std::string::npos &&
            line.find("\"trace\":\"" + trace + "\"") !=
                std::string::npos)
            saw_analyze = true;
    }
    EXPECT_GE(lines, 3u);
    EXPECT_TRUE(saw_analyze);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------- //
//          Wire surface of /stats and /metrics (fixed script)       //
// ---------------------------------------------------------------- //

/** Dotted key paths of every leaf under the object at `pos` (a
 *  JsonWriter body: no whitespace; arrays count as leaves). */
void
collectKeyPaths(const std::string &json, std::size_t &pos,
                const std::string &prefix, std::vector<std::string> &out)
{
    ++pos; // '{'
    while (json[pos] != '}') {
        if (json[pos] == ',')
            ++pos;
        const std::size_t close = json.find('"', pos + 1);
        const std::string key = json.substr(pos + 1, close - pos - 1);
        const std::string path = prefix.empty() ? key : prefix + "." + key;
        pos = close + 2; // past '":'
        if (json[pos] == '{') {
            collectKeyPaths(json, pos, path, out);
            continue;
        }
        out.push_back(path);
        if (json[pos] == '[')
            pos = json.find(']', pos) + 1;
        else if (json[pos] == '"')
            pos = json.find('"', pos + 1) + 1;
        else
            pos = json.find_first_of(",}", pos);
    }
    ++pos; // '}'
}

/** Family names declared by `# TYPE` lines, with their types. */
std::map<std::string, std::string>
familyTypes(const std::string &exposition)
{
    std::map<std::string, std::string> types;
    std::size_t at = 0;
    while ((at = exposition.find("# TYPE ", at)) != std::string::npos) {
        const std::size_t name_end = exposition.find(' ', at + 7);
        const std::size_t eol = exposition.find('\n', name_end);
        types[exposition.substr(at + 7, name_end - at - 7)] =
            exposition.substr(name_end + 1, eol - name_end - 1);
        at = eol;
    }
    return types;
}

/**
 * Series identities of a /metrics body: `family{labels}` with the
 * sample value stripped, a histogram's bucket/sum/count lines folded
 * into one series (le dropped), mapped to their line counts.
 */
std::map<std::string, std::size_t>
seriesIdentities(const std::string &body)
{
    const std::map<std::string, std::string> types = familyTypes(body);

    std::map<std::string, std::size_t> out;
    std::size_t pos = 0;
    while (pos < body.size()) {
        const std::size_t eol = body.find('\n', pos);
        const std::string line = body.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        std::string id = line.substr(0, line.rfind(' '));
        std::string name = id.substr(0, id.find('{'));
        std::string labels = id.substr(name.size());
        for (const char *suffix : {"_bucket", "_sum", "_count"}) {
            const std::string s(suffix);
            const std::string base =
                name.size() > s.size() &&
                        name.compare(name.size() - s.size(), s.size(),
                                     s) == 0
                    ? name.substr(0, name.size() - s.size())
                    : "";
            const auto t = types.find(base);
            if (t != types.end() && t->second == "histogram") {
                name = base;
                const std::size_t le = labels.find("le=\"");
                if (le != std::string::npos) {
                    const std::size_t end = labels.find('"', le + 4);
                    const bool comma = labels[end + 1] == ',';
                    labels.erase(le, end + 1 - le + (comma ? 1 : 0));
                    if (labels.size() > 1 &&
                        labels[labels.size() - 2] == ',')
                        labels.erase(labels.size() - 2, 1);
                    if (labels == "{}")
                        labels.clear();
                }
            }
        }
        ++out[name + labels];
    }
    return out;
}

TEST(ServeSurface, FixedScriptKeepsStatsKeysAndMetricSeries)
{
    TestServer server;
    const std::uint16_t port = server.port();
    const std::string dsl = tinyNetwork(8);

    // The fixed request script.
    EXPECT_EQ(oneShot(port, getRequest("/healthz")).status, 200);
    const std::string analyze =
        postRequest("/analyze?dataflow=C-P", dsl);
    EXPECT_EQ(oneShot(port, analyze).headers.at("x-result-cache"),
              "miss");
    EXPECT_EQ(oneShot(port, analyze).headers.at("x-result-cache"),
              "hit");
    EXPECT_EQ(oneShot(port, postRequest("/dse?dataflow=C-P", dsl)).status,
              200);
    EXPECT_EQ(
        oneShot(port, postRequest("/simulate?dataflow=C-P", dsl)).status,
        200);
    EXPECT_EQ(oneShot(port, postRequest("/analyze", "Nonsense (")).status,
              400);
    EXPECT_EQ(oneShot(port, getRequest("/nope")).status, 404);
    EXPECT_EQ(oneShot(port, getRequest("/analyze")).status, 405);
    const ClientResponse job =
        oneShot(port, postRequest("/jobs/analyze?dataflow=X-P", dsl));
    ASSERT_EQ(job.status, 202) << job.body;
    EXPECT_EQ(waitJob(port, jsonString(job.body, "id")).status, 200);
    EXPECT_EQ(oneShot(port, getRequest("/events?n=3")).status, 200);
    const std::string stats = oneShot(port, getRequest("/stats")).body;
    const std::string metrics =
        oneShot(port, getRequest("/metrics")).body;

    // The /stats key paths, in order, are part of the wire contract
    // (dashboards and the benchmark driver read them).
    std::vector<std::string> keys;
    std::size_t pos = 0;
    collectKeyPaths(stats, pos, "", keys);
    std::vector<std::string> expected_keys = {
        "uptime_us", "requests.total"};
    for (const char *ep :
         {"analyze", "dse", "tune", "simulate", "crossval", "jobs",
          "healthz", "stats", "metrics", "events"})
        expected_keys.push_back(std::string("requests.") + ep);
    for (const char *k :
         {"responses.2xx", "responses.4xx", "responses.5xx",
          "responses.deadline_408", "responses.throttled_429",
          "responses.rejected_503", "queue.capacity", "queue.depth",
          "queue.peak_depth", "queue.rejected", "queue.client_share",
          "queue.active_clients", "queue.rejected_client",
          "result_cache.hits", "result_cache.misses",
          "result_cache.evictions", "result_cache.inserted",
          "result_cache.entries", "result_cache.bytes",
          "result_cache.served_bytes", "jobs.submitted",
          "jobs.resubmitted", "jobs.completed", "jobs.failed",
          "jobs.cancelled", "jobs.evicted", "jobs.rejected_capacity",
          "jobs.rejected_client", "jobs.queued", "jobs.running",
          "jobs.resident", "jobs.capacity", "latency_us.count",
          "latency_us.total", "latency_us.max", "latency_us.buckets",
          "latency_us.le_us", "pipeline.evaluations"})
        expected_keys.push_back(k);
    for (const char *stage :
         {"stages.tensor", "stages.binding", "stages.flat",
          "stages.layer", "aggregate"})
        for (const char *field :
             {"hits", "misses", "evictions", "entries", "hit_rate"})
            expected_keys.push_back(std::string("pipeline.") + stage +
                                    "." + field);
    for (const char *k :
         {"events.lines", "events.bytes", "events.rotations",
          "events.dropped"})
        expected_keys.push_back(k);
    EXPECT_EQ(keys, expected_keys);

    // Every series the server renders on this script, the library's
    // instruments included. endpoint="other" counts unrouted and
    // unparsed requests, so requests.total adds up.
    std::vector<std::string> expected = {
        "maestro_active_clients",
        "maestro_build_info{version=\"" + std::string(kVersion) + "\"}",
        "maestro_client_cache_hits_total{client=\"127.0.0.1\"}",
        "maestro_client_cache_hits_total{client=\"other\"}",
        "maestro_client_inflight{client=\"127.0.0.1\"}",
        "maestro_client_inflight{client=\"other\"}",
        "maestro_client_rejected_total",
        "maestro_client_requests_total{client=\"127.0.0.1\"}",
        "maestro_client_requests_total{client=\"other\"}",
        "maestro_client_throttled_total{client=\"127.0.0.1\"}",
        "maestro_client_throttled_total{client=\"other\"}",
        "maestro_deadline_expirations_total",
        "maestro_dse_explore_us",
        "maestro_dse_explored_points_total",
        "maestro_dse_pairs_us",
        "maestro_dse_shard_us",
        "maestro_dse_sweeps_total",
        "maestro_dse_valid_points_total",
        "maestro_endpoint_latency_us{cache=\"hit\",endpoint=\"analyze\"}",
        "maestro_endpoint_latency_us{cache=\"hit\",endpoint=\"crossval\"}",
        "maestro_endpoint_latency_us{cache=\"hit\",endpoint=\"dse\"}",
        "maestro_endpoint_latency_us{cache=\"hit\",endpoint=\"simulate\"}",
        "maestro_endpoint_latency_us{cache=\"hit\",endpoint=\"tune\"}",
        "maestro_endpoint_latency_us{cache=\"miss\",endpoint=\"analyze\"}",
        "maestro_endpoint_latency_us{cache=\"miss\",endpoint=\"crossval\"}",
        "maestro_endpoint_latency_us{cache=\"miss\",endpoint=\"dse\"}",
        "maestro_endpoint_latency_us{cache=\"miss\",endpoint=\"simulate\"}",
        "maestro_endpoint_latency_us{cache=\"miss\",endpoint=\"tune\"}",
        "maestro_endpoint_latency_us{endpoint=\"events\"}",
        "maestro_endpoint_latency_us{endpoint=\"healthz\"}",
        "maestro_endpoint_latency_us{endpoint=\"jobs\"}",
        "maestro_endpoint_latency_us{endpoint=\"metrics\"}",
        "maestro_endpoint_latency_us{endpoint=\"other\"}",
        "maestro_endpoint_latency_us{endpoint=\"stats\"}",
        "maestro_events_bytes_total",
        "maestro_events_dropped_total",
        "maestro_events_logged_total",
        "maestro_events_rotations_total",
        "maestro_jobs_capacity",
        "maestro_jobs_oldest_queued_age_us",
        "maestro_jobs_resident{state=\"queued\"}",
        "maestro_jobs_resident{state=\"running\"}",
        "maestro_jobs_resident{state=\"total\"}",
        "maestro_jobs_total{event=\"cancelled\"}",
        "maestro_jobs_total{event=\"completed\"}",
        "maestro_jobs_total{event=\"evicted\"}",
        "maestro_jobs_total{event=\"failed\"}",
        "maestro_jobs_total{event=\"rejected_capacity\"}",
        "maestro_jobs_total{event=\"rejected_client\"}",
        "maestro_jobs_total{event=\"resubmitted\"}",
        "maestro_jobs_total{event=\"submitted\"}",
        "maestro_pipeline_cache_entries{stage=\"aggregate\"}",
        "maestro_pipeline_cache_entries{stage=\"binding\"}",
        "maestro_pipeline_cache_entries{stage=\"flat\"}",
        "maestro_pipeline_cache_entries{stage=\"layer\"}",
        "maestro_pipeline_cache_entries{stage=\"tensor\"}",
        "maestro_pipeline_cache_evictions_total{stage=\"aggregate\"}",
        "maestro_pipeline_cache_evictions_total{stage=\"binding\"}",
        "maestro_pipeline_cache_evictions_total{stage=\"flat\"}",
        "maestro_pipeline_cache_evictions_total{stage=\"layer\"}",
        "maestro_pipeline_cache_evictions_total{stage=\"tensor\"}",
        "maestro_pipeline_cache_hits_total{stage=\"aggregate\"}",
        "maestro_pipeline_cache_hits_total{stage=\"binding\"}",
        "maestro_pipeline_cache_hits_total{stage=\"flat\"}",
        "maestro_pipeline_cache_hits_total{stage=\"layer\"}",
        "maestro_pipeline_cache_hits_total{stage=\"tensor\"}",
        "maestro_pipeline_cache_misses_total{stage=\"aggregate\"}",
        "maestro_pipeline_cache_misses_total{stage=\"binding\"}",
        "maestro_pipeline_cache_misses_total{stage=\"flat\"}",
        "maestro_pipeline_cache_misses_total{stage=\"layer\"}",
        "maestro_pipeline_cache_misses_total{stage=\"tensor\"}",
        "maestro_pipeline_evaluations_total",
        "maestro_pipeline_stage_miss_us{stage=\"binding\"}",
        "maestro_pipeline_stage_miss_us{stage=\"flat\"}",
        "maestro_pipeline_stage_miss_us{stage=\"layer\"}",
        "maestro_pipeline_stage_miss_us{stage=\"tensor\"}",
        "maestro_pool_queue_wait_us",
        "maestro_pool_task_run_us",
        "maestro_queue_capacity",
        "maestro_queue_depth",
        "maestro_queue_peak_depth",
        "maestro_queue_rejected_total",
        "maestro_queue_wait_us{endpoint=\"analyze\"}",
        "maestro_queue_wait_us{endpoint=\"crossval\"}",
        "maestro_queue_wait_us{endpoint=\"dse\"}",
        "maestro_queue_wait_us{endpoint=\"simulate\"}",
        "maestro_queue_wait_us{endpoint=\"tune\"}",
        "maestro_request_latency_us",
        "maestro_requests_total{endpoint=\"analyze\"}",
        "maestro_requests_total{endpoint=\"crossval\"}",
        "maestro_requests_total{endpoint=\"dse\"}",
        "maestro_requests_total{endpoint=\"events\"}",
        "maestro_requests_total{endpoint=\"healthz\"}",
        "maestro_requests_total{endpoint=\"jobs\"}",
        "maestro_requests_total{endpoint=\"metrics\"}",
        "maestro_requests_total{endpoint=\"other\"}",
        "maestro_requests_total{endpoint=\"simulate\"}",
        "maestro_requests_total{endpoint=\"stats\"}",
        "maestro_requests_total{endpoint=\"tune\"}",
        "maestro_responses_total{class=\"2xx\"}",
        "maestro_responses_total{class=\"4xx\"}",
        "maestro_responses_total{class=\"5xx\"}",
        "maestro_result_cache_bytes",
        "maestro_result_cache_entries",
        "maestro_result_cache_evictions_total",
        "maestro_result_cache_requests_total{outcome=\"hit\"}",
        "maestro_result_cache_requests_total{outcome=\"miss\"}",
        "maestro_result_cache_served_bytes_total",
        "maestro_run_us{endpoint=\"analyze\"}",
        "maestro_run_us{endpoint=\"crossval\"}",
        "maestro_run_us{endpoint=\"dse\"}",
        "maestro_run_us{endpoint=\"simulate\"}",
        "maestro_run_us{endpoint=\"tune\"}",
        "maestro_uptime_us",
    };
    const std::map<std::string, std::string> types =
        familyTypes(metrics);
    std::vector<std::string> ids;
    for (const auto &[id, lines] : seriesIdentities(metrics)) {
        ids.push_back(id);
        // Histograms keep every bucket plus _sum and _count.
        const bool histogram =
            types.at(id.substr(0, id.find('{'))) == "histogram";
        EXPECT_EQ(lines,
                  histogram ? LatencyHistogram::kBuckets + 2 : 1u)
            << id;
    }
    EXPECT_EQ(ids, expected);

    // requests.total is the sum over the endpoint keys plus the
    // script's one unrouted request (/nope, labelled "other").
    std::uint64_t routed = 0;
    for (const Endpoint &e : endpoints())
        routed += jsonField(stats, "requests", e.name);
    EXPECT_EQ(jsonField(stats, "requests", "total"), routed + 1);
}

// ---------------------------------------------------------------- //
//                  Admission/histogram primitives                  //
// ---------------------------------------------------------------- //

TEST(ServeAdmission, BoundsInFlightAndCountsRejections)
{
    using Admit = AdmissionController::Admit;
    AdmissionController admission(2);
    EXPECT_EQ(admission.capacity(), 2u);
    EXPECT_EQ(admission.admit(""), Admit::Ok);
    EXPECT_EQ(admission.admit(""), Admit::Ok);
    EXPECT_EQ(admission.admit(""), Admit::FullGlobal); // full
    EXPECT_EQ(admission.depth(), 2u);
    admission.release("");
    EXPECT_EQ(admission.admit(""), Admit::Ok);
    EXPECT_EQ(admission.peakDepth(), 2u);
    admission.release("");
    admission.release("");
    EXPECT_EQ(admission.depth(), 0u);

    AdmissionController degenerate(0); // clamped to 1
    EXPECT_EQ(degenerate.capacity(), 1u);
}

TEST(ServeAdmission, ConcurrentAdmitNeverExceedsCapacity)
{
    constexpr std::size_t kCapacity = 4;
    AdmissionController admission(kCapacity);
    std::atomic<std::size_t> peak{0};
    std::atomic<std::size_t> inside{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 2000; ++i) {
                if (admission.admit("") !=
                    AdmissionController::Admit::Ok)
                    continue;
                const std::size_t now =
                    inside.fetch_add(1) + 1;
                std::size_t p = peak.load();
                while (now > p &&
                       !peak.compare_exchange_weak(p, now)) {
                }
                inside.fetch_sub(1);
                admission.release("");
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_LE(peak.load(), kCapacity);
    EXPECT_LE(admission.peakDepth(), kCapacity);
    EXPECT_EQ(admission.depth(), 0u);
}

TEST(ServeLatencyHistogram, BucketsAndSummary)
{
    LatencyHistogram h;
    h.record(0);    // bucket 0
    h.record(1);    // bucket 0: [1, 2)
    h.record(2);    // bucket 1: [2, 4)
    h.record(1023); // bucket 9: [512, 1024)
    h.record(std::uint64_t{1} << 40); // clamped to the last bucket
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(9), 1u);
    EXPECT_EQ(h.bucket(LatencyHistogram::kBuckets - 1), 1u);
    EXPECT_EQ(h.maxMicros(), std::uint64_t{1} << 40);
    EXPECT_EQ(h.totalMicros(),
              0u + 1 + 2 + 1023 + (std::uint64_t{1} << 40));
}

TEST(ServeCounters, StatusClassification)
{
    // The fleet lane is the one status classifier; read the class
    // counts back through its /stats rendering.
    fleet::FleetLane lane(obs::SharedMetrics::create(1), 0, 8);
    for (const int status : {200, 400, 404, 408, 429, 500, 503})
        lane.countStatus(status);
    const std::string stats = lane.statsJson(fleet::ComponentStats());
    EXPECT_EQ(jsonField(stats, "responses", "2xx"), 1u);
    EXPECT_EQ(jsonField(stats, "responses", "4xx"), 4u);
    EXPECT_EQ(jsonField(stats, "responses", "5xx"), 2u);
    EXPECT_EQ(jsonField(stats, "responses", "deadline_408"), 1u);
    EXPECT_EQ(jsonField(stats, "responses", "throttled_429"), 1u);
    EXPECT_EQ(jsonField(stats, "responses", "rejected_503"), 1u);
}

} // namespace
} // namespace serve
} // namespace maestro
