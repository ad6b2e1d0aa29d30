#include "src/serve/http.hh"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "src/common/error.hh"

namespace maestro
{
namespace serve
{

namespace
{

std::string
toLower(std::string_view s)
{
    std::string out(s);
    std::transform(out.begin(), out.end(), out.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    return out;
}

std::string_view
trim(std::string_view s)
{
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.front())))
        s.remove_prefix(1);
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.back())))
        s.remove_suffix(1);
    return s;
}

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

std::string
urlDecode(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '+') {
            out.push_back(' ');
        } else if (c == '%' && i + 2 < s.size() &&
                   hexDigit(s[i + 1]) >= 0 && hexDigit(s[i + 2]) >= 0) {
            out.push_back(static_cast<char>(hexDigit(s[i + 1]) * 16 +
                                            hexDigit(s[i + 2])));
            i += 2;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::optional<std::size_t>
parseCount(std::string_view text)
{
    // from_chars takes no leading whitespace or '+', and no '-' for
    // an unsigned target; the full-length check rejects trailing
    // bytes, and out-of-range values come back as an error.
    std::size_t value = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || end != text.data() + text.size())
        return std::nullopt;
    return value;
}

std::string
HttpRequest::path() const
{
    const std::size_t q = target.find('?');
    return urlDecode(q == std::string::npos ? target
                                            : target.substr(0, q));
}

QueryParams
HttpRequest::query() const
{
    QueryParams params;
    const std::size_t q = target.find('?');
    if (q == std::string::npos)
        return params;
    std::string_view rest(target);
    rest.remove_prefix(q + 1);
    while (!rest.empty()) {
        const std::size_t amp = rest.find('&');
        const std::string_view pair =
            amp == std::string_view::npos ? rest : rest.substr(0, amp);
        rest.remove_prefix(
            amp == std::string_view::npos ? rest.size() : amp + 1);
        if (pair.empty())
            continue;
        const std::size_t eq = pair.find('=');
        if (eq == std::string_view::npos)
            params[urlDecode(pair)] = "";
        else
            params[urlDecode(pair.substr(0, eq))] =
                urlDecode(pair.substr(eq + 1));
    }
    return params;
}

bool
HttpRequest::keepAlive() const
{
    const auto it = headers.find("connection");
    const std::string value =
        it == headers.end() ? "" : toLower(it->second);
    if (version == "HTTP/1.0")
        return value == "keep-alive";
    return value != "close";
}

HttpParser::HttpParser(std::size_t max_header_bytes,
                       std::size_t max_body_bytes)
    : max_header_bytes_(max_header_bytes),
      max_body_bytes_(max_body_bytes)
{
}

void
HttpParser::reset()
{
    state_ = State::Headers;
    buffer_.clear();
    body_expected_ = 0;
    request_ = HttpRequest();
    error_status_ = 400;
    error_detail_.clear();
}

void
HttpParser::fail(int status, std::string detail)
{
    state_ = State::Error;
    error_status_ = status;
    error_detail_ = std::move(detail);
}

std::size_t
HttpParser::feed(std::string_view data)
{
    std::size_t consumed = 0;
    while (consumed < data.size() && state_ != State::Complete &&
           state_ != State::Error) {
        if (state_ == State::Headers) {
            // Accumulate until the blank line; cap total header size.
            const std::size_t take = std::min(
                data.size() - consumed,
                max_header_bytes_ + 4 - std::min(buffer_.size(),
                                                 max_header_bytes_ + 4));
            if (take == 0) {
                fail(431, "header block too large");
                break;
            }
            // Scan for CRLFCRLF across the old/new boundary.
            const std::size_t scan_from =
                buffer_.size() < 3 ? 0 : buffer_.size() - 3;
            buffer_.append(data.substr(consumed, take));
            consumed += take;
            const std::size_t end = buffer_.find("\r\n\r\n", scan_from);
            if (end == std::string::npos) {
                if (buffer_.size() > max_header_bytes_)
                    fail(431, "header block too large");
                continue;
            }
            // Unconsume any bytes past the header terminator; they
            // belong to the body (or a pipelined request).
            const std::size_t header_end = end + 4;
            consumed -= buffer_.size() - header_end;
            buffer_.resize(header_end);
            parseHeaderBlock();
            buffer_.clear();
        } else { // State::Body
            const std::size_t need =
                body_expected_ - request_.body.size();
            const std::size_t take =
                std::min(need, data.size() - consumed);
            request_.body.append(data.substr(consumed, take));
            consumed += take;
            if (request_.body.size() == body_expected_)
                state_ = State::Complete;
        }
    }
    return consumed;
}

void
HttpParser::parseHeaderBlock()
{
    // buffer_ holds "<request line>\r\n(<header>\r\n)*\r\n".
    std::string_view rest(buffer_);
    const std::size_t line_end = rest.find("\r\n");
    std::string_view line = rest.substr(0, line_end);
    rest.remove_prefix(line_end + 2);

    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string_view::npos ? std::string_view::npos
                                      : line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos ||
        sp2 == std::string_view::npos || sp1 == 0 ||
        sp2 == sp1 + 1 || sp2 + 1 >= line.size()) {
        fail(400, "malformed request line");
        return;
    }
    request_.method = std::string(line.substr(0, sp1));
    request_.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
    request_.version = std::string(line.substr(sp2 + 1));
    if (request_.version != "HTTP/1.1" &&
        request_.version != "HTTP/1.0") {
        fail(505, "unsupported HTTP version");
        return;
    }

    while (rest != "\r\n") {
        const std::size_t he = rest.find("\r\n");
        std::string_view header = rest.substr(0, he);
        rest.remove_prefix(he + 2);
        const std::size_t colon = header.find(':');
        if (colon == std::string_view::npos || colon == 0) {
            fail(400, "malformed header field");
            return;
        }
        const std::string name = toLower(trim(header.substr(0, colon)));
        const std::string value(trim(header.substr(colon + 1)));
        const auto it = request_.headers.find(name);
        if (it != request_.headers.end()) {
            if (name == "content-length" && it->second != value) {
                fail(400, "conflicting Content-Length");
                return;
            }
            it->second += ", " + value;
        } else {
            request_.headers.emplace(name, value);
        }
    }

    if (request_.headers.count("transfer-encoding")) {
        fail(501, "Transfer-Encoding not supported");
        return;
    }
    body_expected_ = 0;
    const auto cl = request_.headers.find("content-length");
    if (cl != request_.headers.end()) {
        const std::string_view v = cl->second;
        std::uint64_t n = 0;
        const auto res =
            std::from_chars(v.data(), v.data() + v.size(), n);
        if (res.ec != std::errc() || res.ptr != v.data() + v.size()) {
            fail(400, "malformed Content-Length");
            return;
        }
        if (n > max_body_bytes_) {
            fail(413, "body larger than limit");
            return;
        }
        body_expected_ = static_cast<std::size_t>(n);
    }
    request_.body.reserve(body_expected_);
    state_ = body_expected_ == 0 ? State::Complete : State::Body;
}

std::string_view
statusReason(int status)
{
    switch (status) {
      case 200:
        return "OK";
      case 202:
        return "Accepted";
      case 400:
        return "Bad Request";
      case 404:
        return "Not Found";
      case 405:
        return "Method Not Allowed";
      case 408:
        return "Request Timeout";
      case 409:
        return "Conflict";
      case 429:
        return "Too Many Requests";
      case 413:
        return "Payload Too Large";
      case 431:
        return "Request Header Fields Too Large";
      case 500:
        return "Internal Server Error";
      case 501:
        return "Not Implemented";
      case 503:
        return "Service Unavailable";
      case 505:
        return "HTTP Version Not Supported";
      default:
        return "Unknown";
    }
}

std::string
serializeResponse(int status, std::string_view body,
                  std::string_view content_type, bool keep_alive,
                  const std::vector<std::string> &extra_headers)
{
    std::string out;
    out.reserve(body.size() + 256);
    out += "HTTP/1.1 ";
    out += std::to_string(status);
    out += ' ';
    out += statusReason(status);
    out += "\r\nContent-Type: ";
    out += content_type;
    out += "\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\nConnection: ";
    out += keep_alive ? "keep-alive" : "close";
    out += "\r\n";
    for (const std::string &h : extra_headers) {
        out += h;
        out += "\r\n";
    }
    out += "\r\n";
    out += body;
    return out;
}

} // namespace serve
} // namespace maestro
