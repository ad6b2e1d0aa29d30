/**
 * @file
 * The in-memory span recorder. Spans are appended while a traced run
 * measures and written out only when it ends, so recording costs one
 * clock read and one vector append per boundary.
 */

#include <fstream>

#include "bench.hh"

namespace perfbench
{

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace

std::uint32_t
Tracer::begin(const char *name, std::uint64_t op, std::uint32_t parent)
{
    if (!enabled_)
        return kNone;
    spans_.push_back({parent, op, name, nowNs(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
}

void
Tracer::end(std::uint32_t id)
{
    if (id != kNone)
        spans_[id].end_ns = nowNs();
}

void
Tracer::absorb(const Tracer &other)
{
    const auto base = static_cast<std::uint32_t>(spans_.size());
    for (Span span : other.spans_) {
        if (span.parent != kNone)
            span.parent += base;
        spans_.push_back(span);
    }
}

std::map<std::string, std::pair<double, std::size_t>>
Tracer::totals() const
{
    std::map<std::string, std::pair<double, std::size_t>> out;
    for (const Span &span : spans_) {
        auto &[ns, count] = out[span.name];
        ns += static_cast<double>(span.end_ns - span.start_ns);
        ++count;
    }
    return out;
}

std::map<std::string, double>
Tracer::selfNs() const
{
    // Children nest inside their parent on one thread, so the covered
    // part of a span is the sum of its direct children's durations.
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span &span : spans_) {
        if (span.parent != kNone)
            covered[span.parent] +=
                static_cast<double>(span.end_ns - span.start_ns);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] +=
            static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
            covered[i];
    return out;
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"parent\":"
            << (s.parent == kNone ? -1 : static_cast<long long>(s.parent))
            << ",\"op\":" << s.op << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
