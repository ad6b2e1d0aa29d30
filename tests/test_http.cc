/**
 * @file
 * Tests for the HTTP/1.1 message layer: incremental parsing down to
 * byte-at-a-time feeds, Content-Length body framing, pipelined-bytes
 * accounting, header normalization, keep-alive semantics, the
 * hostile-input error statuses (400/413/431/501/505), target/query
 * decoding, and response serialization. The parser must never throw
 * on malformed input — errors are a state, not an exception.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <string_view>

#include "src/serve/http.hh"

namespace maestro
{
namespace serve
{
namespace
{

using State = HttpParser::State;

/** Feeds everything at once; expects full consumption. */
State
feedAll(HttpParser &p, const std::string &bytes)
{
    const std::size_t used = p.feed(bytes);
    EXPECT_EQ(used, bytes.size());
    return p.state();
}

TEST(HttpParser, SimpleGet)
{
    HttpParser p;
    const State s = feedAll(
        p, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    ASSERT_EQ(s, State::Complete);
    const HttpRequest &r = p.request();
    EXPECT_EQ(r.method, "GET");
    EXPECT_EQ(r.target, "/healthz");
    EXPECT_EQ(r.version, "HTTP/1.1");
    EXPECT_EQ(r.path(), "/healthz");
    EXPECT_TRUE(r.body.empty());
    EXPECT_TRUE(r.keepAlive());
}

TEST(HttpParser, PostWithBody)
{
    HttpParser p;
    const State s = feedAll(p,
                            "POST /analyze HTTP/1.1\r\n"
                            "Content-Length: 5\r\n\r\nhello");
    ASSERT_EQ(s, State::Complete);
    EXPECT_EQ(p.request().body, "hello");
}

TEST(HttpParser, ByteAtATime)
{
    const std::string raw =
        "POST /analyze?layer=conv1 HTTP/1.1\r\n"
        "Host: localhost\r\n"
        "Content-Length: 4\r\n"
        "\r\n"
        "body";
    HttpParser p;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        ASSERT_NE(p.state(), State::Error) << "at byte " << i;
        const std::size_t used =
            p.feed(std::string_view(raw.data() + i, 1));
        ASSERT_EQ(used, 1u) << "at byte " << i;
    }
    ASSERT_EQ(p.state(), State::Complete);
    EXPECT_EQ(p.request().body, "body");
    EXPECT_EQ(p.request().path(), "/analyze");
    // Once complete, further bytes are not consumed (pipelining).
    EXPECT_EQ(p.feed("GET"), 0u);
}

TEST(HttpParser, BodySplitAcrossFeeds)
{
    HttpParser p;
    const std::string head =
        "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n";
    EXPECT_EQ(p.feed(head), head.size());
    EXPECT_EQ(p.state(), State::Body);
    EXPECT_EQ(p.feed("01234"), 5u);
    EXPECT_EQ(p.state(), State::Body);
    EXPECT_EQ(p.feed("56789"), 5u);
    ASSERT_EQ(p.state(), State::Complete);
    EXPECT_EQ(p.request().body, "0123456789");
}

TEST(HttpParser, PipelinedSecondRequestNotConsumed)
{
    const std::string first = "GET /a HTTP/1.1\r\n\r\n";
    const std::string second = "GET /b HTTP/1.1\r\n\r\n";
    HttpParser p;
    const std::size_t used = p.feed(first + second);
    EXPECT_EQ(used, first.size());
    ASSERT_EQ(p.state(), State::Complete);
    EXPECT_EQ(p.request().target, "/a");

    // reset() starts the next request from the unconsumed bytes.
    p.reset();
    EXPECT_EQ(p.feed(second), second.size());
    ASSERT_EQ(p.state(), State::Complete);
    EXPECT_EQ(p.request().target, "/b");
}

TEST(HttpParser, HeaderNamesLowercasedValuesTrimmed)
{
    HttpParser p;
    feedAll(p,
            "GET / HTTP/1.1\r\n"
            "CoNtEnT-TyPe:   text/plain  \r\n\r\n");
    ASSERT_EQ(p.state(), State::Complete);
    const auto &h = p.request().headers;
    ASSERT_EQ(h.count("content-type"), 1u);
    EXPECT_EQ(h.at("content-type"), "text/plain");
}

TEST(HttpParser, KeepAliveRules)
{
    {
        HttpParser p;
        feedAll(p, "GET / HTTP/1.1\r\n\r\n");
        EXPECT_TRUE(p.request().keepAlive()); // 1.1 default
    }
    {
        HttpParser p;
        feedAll(p, "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        EXPECT_FALSE(p.request().keepAlive());
    }
    {
        HttpParser p;
        feedAll(p, "GET / HTTP/1.0\r\n\r\n");
        EXPECT_FALSE(p.request().keepAlive()); // 1.0 default
    }
    {
        HttpParser p;
        feedAll(p,
                "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        EXPECT_TRUE(p.request().keepAlive());
    }
}

TEST(HttpParser, MalformedRequestLineIs400)
{
    HttpParser p;
    EXPECT_EQ(feedAll(p, "NONSENSE\r\n\r\n"), State::Error);
    EXPECT_EQ(p.errorStatus(), 400);
    EXPECT_FALSE(p.errorDetail().empty());
}

TEST(HttpParser, BadVersionIs505)
{
    HttpParser p;
    EXPECT_EQ(feedAll(p, "GET / HTTP/2.0\r\n\r\n"), State::Error);
    EXPECT_EQ(p.errorStatus(), 505);
}

TEST(HttpParser, BadContentLengthIs400)
{
    {
        HttpParser p;
        EXPECT_EQ(feedAll(p,
                          "POST / HTTP/1.1\r\n"
                          "Content-Length: abc\r\n\r\n"),
                  State::Error);
        EXPECT_EQ(p.errorStatus(), 400);
    }
    {
        HttpParser p;
        EXPECT_EQ(feedAll(p,
                          "POST / HTTP/1.1\r\n"
                          "Content-Length: -1\r\n\r\n"),
                  State::Error);
        EXPECT_EQ(p.errorStatus(), 400);
    }
}

TEST(HttpParser, OversizedHeadersAre431)
{
    HttpParser p(/*max_header_bytes=*/64, /*max_body_bytes=*/1024);
    std::string raw = "GET / HTTP/1.1\r\nX-Pad: ";
    raw.append(256, 'a');
    raw += "\r\n\r\n";
    p.feed(raw);
    ASSERT_EQ(p.state(), State::Error);
    EXPECT_EQ(p.errorStatus(), 431);
}

TEST(HttpParser, HeaderCapDoesNotDependOnSplit)
{
    // The request line and fields may fill max_header_bytes; the
    // CRLFCRLF that ends them does not count. A block is accepted or
    // refused on its length alone, however the bytes arrive.
    constexpr std::size_t kMax = 64;
    const struct
    {
        std::size_t length;
        State state;
    } kCases[] = {
        {kMax, State::Complete},     {kMax + 1, State::Complete},
        {kMax + 2, State::Complete}, {kMax + 3, State::Complete},
        {kMax + 4, State::Complete}, {kMax + 5, State::Error},
    };
    for (const auto &c : kCases) {
        std::string raw = "GET / HTTP/1.1\r\nX-Pad: ";
        raw.append(c.length - raw.size() - 4, 'a');
        raw += "\r\n\r\n";
        ASSERT_EQ(raw.size(), c.length);
        // Cut 0 feeds the block whole; every other cut splits it.
        for (std::size_t cut = 0; cut < raw.size(); ++cut) {
            HttpParser p(kMax, 32);
            p.feed(std::string_view(raw).substr(0, cut));
            p.feed(std::string_view(raw).substr(cut));
            EXPECT_EQ(p.state(), c.state)
                << "length " << c.length << ", cut at " << cut;
            if (c.state == State::Error) {
                EXPECT_EQ(p.errorStatus(), 431);
            }
        }
    }
}

/** Where one feed sequence left the parser. */
struct Outcome
{
    State state;
    int status;
    std::size_t consumed;
    HttpRequest request;
};

/**
 * Feeds `bytes` in pieces of 1..max_piece bytes drawn from `rng`
 * (the whole input at once when max_piece is 0), until a feed leaves
 * bytes unconsumed.
 */
Outcome
feedPieces(std::string_view bytes, std::size_t max_piece,
           std::mt19937 &rng)
{
    HttpParser p(/*max_header_bytes=*/64, /*max_body_bytes=*/32);
    std::uniform_int_distribution<std::size_t> piece(
        1, std::max<std::size_t>(max_piece, 1));
    std::size_t consumed = 0;
    while (consumed < bytes.size()) {
        const std::size_t n =
            max_piece == 0 ? bytes.size() - consumed
                           : std::min(piece(rng), bytes.size() - consumed);
        const std::size_t used = p.feed(bytes.substr(consumed, n));
        consumed += used;
        if (used < n)
            break;
    }
    return {p.state(), p.errorStatus(), consumed, p.request()};
}

TEST(HttpParser, SeededFramingFuzz)
{
    // Deterministic fuzz: random runs of HTTP framing tokens around
    // the 64-byte header cap. Every terminal outcome is Complete or
    // an error status the server answers with, and splitting the
    // bytes across feeds never changes the outcome.
    static const std::string_view kTokens[] = {
        "GET ",
        "POST ",
        "BREW ",
        "/analyze?layer=conv%201 ",
        "/a%2Fb%zz%4 ",
        "/ ",
        " ",
        "HTTP/1.1",
        "HTTP/1.0",
        "HTTP/2.0",
        "\r",
        "\n",
        "\r\n", // three times, so blocks often end
        "\r\n",
        "\r\n",
        std::string_view("\0", 1),
        "Content-Length: 5",
        "Content-Length: 05",
        "Content-Length: -1",
        "Content-Length: 33",
        "Content-Length: 18446744073709551616",
        "Transfer-Encoding: chunked",
        "Connection: close",
        "X-Pad: aaaaaaaaaaaa",
        ":",
        "hello",
    };
    std::mt19937 rng(20191012); // fixed seed: reproducible corpus
    std::uniform_int_distribution<std::size_t> pick(
        0, sizeof(kTokens) / sizeof(kTokens[0]) - 1);
    std::uniform_int_distribution<int> len(1, 30);
    std::uniform_int_distribution<std::size_t> max_piece(1, 24);
    for (int iter = 0; iter < 20000; ++iter) {
        std::string bytes;
        for (int i = len(rng); i > 0; --i)
            bytes += kTokens[pick(rng)];
        const Outcome whole = feedPieces(bytes, 0, rng);
        const Outcome split = feedPieces(bytes, max_piece(rng), rng);
        if (whole.state == State::Error) {
            const int s = whole.status;
            ASSERT_TRUE(s == 400 || s == 413 || s == 431 || s == 501 ||
                        s == 505)
                << s << " for " << testing::PrintToString(bytes);
        }
        ASSERT_EQ(whole.state, split.state)
            << testing::PrintToString(bytes);
        ASSERT_EQ(whole.status, split.status)
            << testing::PrintToString(bytes);
        if (whole.state == State::Complete) {
            // Where the request ends is where a pipelined one starts.
            ASSERT_EQ(whole.consumed, split.consumed)
                << testing::PrintToString(bytes);
        }
        const HttpRequest &a = whole.request;
        const HttpRequest &b = split.request;
        ASSERT_TRUE(a.method == b.method && a.target == b.target &&
                    a.version == b.version && a.headers == b.headers &&
                    a.body == b.body)
            << testing::PrintToString(bytes);
    }
}

TEST(HttpParser, OversizedBodyIs413)
{
    HttpParser p(/*max_header_bytes=*/1024, /*max_body_bytes=*/8);
    feedAll(p, "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n");
    ASSERT_EQ(p.state(), State::Error);
    EXPECT_EQ(p.errorStatus(), 413);
}

TEST(HttpParser, TransferEncodingIs501)
{
    HttpParser p;
    feedAll(p,
            "POST / HTTP/1.1\r\n"
            "Transfer-Encoding: chunked\r\n\r\n");
    ASSERT_EQ(p.state(), State::Error);
    EXPECT_EQ(p.errorStatus(), 501);
}

TEST(HttpParser, ResetClearsEverything)
{
    HttpParser p;
    feedAll(p, "GET / HTTP/2.0\r\n\r\n");
    ASSERT_EQ(p.state(), State::Error);
    p.reset();
    EXPECT_EQ(p.state(), State::Headers);
    feedAll(p, "GET /ok HTTP/1.1\r\n\r\n");
    ASSERT_EQ(p.state(), State::Complete);
    EXPECT_EQ(p.request().target, "/ok");
}

TEST(HttpRequest, QueryDecoding)
{
    HttpParser p;
    feedAll(p,
            "GET /dse?layer=conv%201&objective=edp&exact=on"
            " HTTP/1.1\r\n\r\n");
    ASSERT_EQ(p.state(), State::Complete);
    EXPECT_EQ(p.request().path(), "/dse");
    const QueryParams q = p.request().query();
    ASSERT_EQ(q.size(), 3u);
    EXPECT_EQ(q.at("layer"), "conv 1");
    EXPECT_EQ(q.at("objective"), "edp");
    EXPECT_EQ(q.at("exact"), "on");
}

TEST(HttpUrlDecode, PercentAndPlus)
{
    EXPECT_EQ(urlDecode("a%2Fb+c"), "a/b c");
    EXPECT_EQ(urlDecode("%41%62"), "Ab");
    // Malformed escapes pass through untouched rather than crash.
    EXPECT_EQ(urlDecode("%zz%4"), "%zz%4");
}

TEST(HttpResponse, SerializeShape)
{
    const std::string out = serializeResponse(
        200, "{\"ok\":true}", "application/json", true,
        {"Retry-After: 1"});
    EXPECT_NE(out.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
    EXPECT_NE(out.find("Content-Type: application/json\r\n"),
              std::string::npos);
    EXPECT_NE(out.find("Content-Length: 11\r\n"), std::string::npos);
    EXPECT_NE(out.find("Connection: keep-alive\r\n"),
              std::string::npos);
    EXPECT_NE(out.find("Retry-After: 1\r\n"), std::string::npos);
    const std::string tail = "\r\n\r\n{\"ok\":true}";
    ASSERT_GE(out.size(), tail.size());
    EXPECT_EQ(out.substr(out.size() - tail.size()), tail);
}

TEST(HttpResponse, CloseAndStatusReasons)
{
    const std::string out =
        serializeResponse(503, "", "application/json", false);
    EXPECT_NE(out.find("HTTP/1.1 503 Service Unavailable\r\n"),
              std::string::npos);
    EXPECT_NE(out.find("Connection: close\r\n"), std::string::npos);
    EXPECT_EQ(statusReason(408), "Request Timeout");
    EXPECT_EQ(statusReason(431),
              "Request Header Fields Too Large");
}

} // namespace
} // namespace serve
} // namespace maestro
