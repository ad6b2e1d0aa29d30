/**
 * @file
 * Prometheus text exposition (v0.0.4) helpers.
 *
 * The metrics segment (shared_metrics.hh) is the process's one
 * metrics store and serve/fleet.cc its one renderer; these helpers
 * write the lines it emits: `# HELP`/`# TYPE` headers, samples with
 * escaped label strings, and histograms as cumulative
 * `_bucket{le="..."}` series plus `_sum`/`_count`.
 */

#ifndef MAESTRO_OBS_METRICS_HH
#define MAESTRO_OBS_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/common/histogram.hh"

namespace maestro
{
namespace obs
{

/** Sorted label set, e.g. {{"stage", "tensor"}}. */
using Labels = std::map<std::string, std::string>;

/**
 * Renders `{a="x",b="y"}` (empty labels -> empty string) with
 * Prometheus label-value escaping.
 */
std::string labelString(const Labels &labels);

/**
 * Appends one `name{labels} value` sample line. `extra` is a
 * pre-rendered label string ("" or "{...}").
 */
void appendSample(std::string &out, std::string_view name,
                  std::string_view extra, double value);
void appendSample(std::string &out, std::string_view name,
                  std::string_view extra, std::uint64_t value);

/** Appends `# HELP` / `# TYPE` header lines for one family. */
void appendFamilyHeader(std::string &out, std::string_view name,
                        std::string_view help, std::string_view type);

/** `labels` ("" or "{...}") with a pre-rendered `k="v"` run added. */
std::string withLabels(std::string_view labels, std::string_view extra);

/**
 * Appends a full histogram exposition of one series (cumulative
 * `_bucket` series with explicit `le` bounds from
 * LatencyHistogram::upperBoundMicros, then `+Inf`, `_sum`, `_count`).
 * `labels` is the series' pre-rendered label string; `trailing` an
 * optional pre-rendered `k="v"` run placed after `le` and on
 * `_sum`/`_count` (a fleet's worker label).
 */
void appendHistogram(std::string &out, std::string_view name,
                     std::string_view labels, std::string_view trailing,
                     const LatencyHistogram::Snapshot &snapshot);

} // namespace obs
} // namespace maestro

#endif // MAESTRO_OBS_METRICS_HH
