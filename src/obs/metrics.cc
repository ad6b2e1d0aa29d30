#include "src/obs/metrics.hh"

#include <charconv>

namespace maestro
{
namespace obs
{

namespace
{

/** Appends a double with to_chars (shortest round-trip, no locale). */
void
appendDouble(std::string &out, double value)
{
    char buf[32];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, res.ptr);
}

} // namespace

std::string
labelString(const Labels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : labels) {
        if (!first)
            out += ',';
        first = false;
        out += key;
        out += "=\"";
        // Prometheus label-value escaping: backslash, quote, newline.
        for (char c : value) {
            if (c == '\\')
                out += "\\\\";
            else if (c == '"')
                out += "\\\"";
            else if (c == '\n')
                out += "\\n";
            else
                out += c;
        }
        out += '"';
    }
    out += '}';
    return out;
}

void
appendSample(std::string &out, std::string_view name,
             std::string_view extra, double value)
{
    out += name;
    out += extra;
    out += ' ';
    appendDouble(out, value);
    out += '\n';
}

void
appendSample(std::string &out, std::string_view name,
             std::string_view extra, std::uint64_t value)
{
    out += name;
    out += extra;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
}

void
appendFamilyHeader(std::string &out, std::string_view name,
                   std::string_view help, std::string_view type)
{
    out += "# HELP ";
    out += name;
    out += ' ';
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += ' ';
    out += type;
    out += '\n';
}

std::string
withLabels(std::string_view labels, std::string_view extra)
{
    std::string out(labels.empty() ? std::string_view("{")
                                   : labels.substr(0, labels.size() - 1));
    if (!labels.empty())
        out += ',';
    out += extra;
    out += '}';
    return out;
}

void
appendHistogram(std::string &out, std::string_view name,
                std::string_view labels, std::string_view trailing,
                const LatencyHistogram::Snapshot &snapshot)
{
    const std::string bucket_name = std::string(name) + "_bucket";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
        cumulative += snapshot.buckets[i];
        std::string le = "le=\"";
        le += LatencyHistogram::isOverflowBucket(i)
                  ? "+Inf"
                  : std::to_string(LatencyHistogram::upperBoundMicros(i));
        le += '"';
        if (!trailing.empty()) {
            le += ',';
            le += trailing;
        }
        appendSample(out, bucket_name, withLabels(labels, le),
                     cumulative);
    }
    const std::string tail =
        trailing.empty() ? std::string(labels)
                         : withLabels(labels, trailing);
    appendSample(out, std::string(name) + "_sum", tail,
                 snapshot.total_us);
    appendSample(out, std::string(name) + "_count", tail,
                 snapshot.count);
}

} // namespace obs
} // namespace maestro
