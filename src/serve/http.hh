/**
 * @file
 * Minimal HTTP/1.1 message layer for the analysis server: an
 * incremental request parser (state machine fed from recv buffers),
 * a response serializer, and target/query helpers.
 *
 * Scope is deliberately the subset the server speaks:
 *  - request line + headers + Content-Length bodies (no chunked
 *    transfer coding — requests carrying Transfer-Encoding get 501);
 *  - keep-alive per HTTP/1.1 defaults (1.0 requires an explicit
 *    "Connection: keep-alive");
 *  - hard caps on header and body bytes (431 / 413) so a hostile
 *    peer cannot balloon memory — these bytes arrive from the
 *    network.
 *
 * The parser never throws on malformed input; it degrades into an
 * error state carrying the status code the connection should answer
 * with before closing.
 */

#ifndef MAESTRO_SERVE_HTTP_HH
#define MAESTRO_SERVE_HTTP_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace maestro
{
namespace serve
{

/** Query parameters decoded from a request target. */
using QueryParams = std::map<std::string, std::string>;

/**
 * One parsed request.
 */
struct HttpRequest
{
    std::string method;  ///< e.g. "GET", "POST"
    std::string target;  ///< raw request target (path + query)
    std::string version; ///< "HTTP/1.1"

    /** Header fields, names lowercased. */
    std::map<std::string, std::string> headers;

    /** Message body ("" when absent). */
    std::string body;

    /** Path component of the target (before '?'), percent-decoded. */
    std::string path() const;

    /** Decoded query parameters (after '?'). */
    QueryParams query() const;

    /** True when the connection may carry another request. */
    bool keepAlive() const;
};

/**
 * Incremental request parser.
 *
 * Feed raw bytes as they arrive; the parser consumes exactly one
 * request and stops (pipelined bytes beyond it are left to the
 * caller via consumed()). Reset between requests.
 */
class HttpParser
{
  public:
    /** Parser progress. */
    enum class State : std::uint8_t
    {
        Headers,  ///< still reading the request line / headers
        Body,     ///< headers done, reading Content-Length bytes
        Complete, ///< one full request parsed
        Error,    ///< malformed input; see errorStatus()
    };

    /**
     * @param max_header_bytes Cap on request line + headers.
     * @param max_body_bytes Cap on the declared Content-Length.
     */
    explicit HttpParser(std::size_t max_header_bytes = 16 * 1024,
                        std::size_t max_body_bytes = 1024 * 1024);

    /**
     * Feeds a chunk of bytes.
     *
     * @return Bytes consumed from `data` (always all of it until the
     *         request completes; afterwards 0).
     */
    std::size_t feed(std::string_view data);

    State state() const { return state_; }

    /**
     * True once any byte of the current request has arrived — the
     * point from which the server's read deadline counts (a sender
     * that starts a request must finish it in time; an idle
     * keep-alive connection is governed by the idle timeout
     * instead).
     */
    bool
    started() const
    {
        return state_ != State::Headers || !buffer_.empty();
    }

    /** The parsed request (valid once state() == Complete). */
    const HttpRequest &request() const { return request_; }

    /** Status code to answer with when state() == Error. */
    int errorStatus() const { return error_status_; }

    /** Human-readable error detail (empty unless Error). */
    const std::string &errorDetail() const { return error_detail_; }

    /** Forgets everything and starts parsing a fresh request. */
    void reset();

  private:
    /** Parses the accumulated header block; sets Body/Complete/Error. */
    void parseHeaderBlock();

    /** Enters the error state. */
    void fail(int status, std::string detail);

    std::size_t max_header_bytes_;
    std::size_t max_body_bytes_;
    State state_ = State::Headers;
    std::string buffer_; ///< header bytes until CRLFCRLF, then body
    std::size_t body_expected_ = 0;
    HttpRequest request_;
    int error_status_ = 400;
    std::string error_detail_;
};

/** Reason phrase for the status codes the server emits. */
std::string_view statusReason(int status);

/**
 * Serializes one response with Content-Length framing.
 *
 * @param status Status code.
 * @param body Payload (may be empty).
 * @param content_type Content-Type header value.
 * @param keep_alive Emits "Connection: keep-alive" / "close".
 * @param extra_headers Pre-formatted "Name: value" lines (no CRLF).
 */
std::string serializeResponse(
    int status, std::string_view body,
    std::string_view content_type = "application/json",
    bool keep_alive = true,
    const std::vector<std::string> &extra_headers = {});

/** Percent-decodes a URL component ("%2F", '+' -> space). */
std::string urlDecode(std::string_view s);

/**
 * Strict decimal count from an untrusted query string: the whole
 * text must be digits (no sign, no whitespace, no exponent) and fit
 * a std::size_t. nullopt otherwise.
 */
std::optional<std::size_t> parseCount(std::string_view text);

} // namespace serve
} // namespace maestro

#endif // MAESTRO_SERVE_HTTP_HH
