/**
 * @file
 * perfbench_driver: runs one benchmark workload and prints its metrics.
 *
 *   perfbench_driver --workload cli_cold|serve_cold|serve_hot|search
 *                    --seed N --seconds S --trace 0|1
 *                    --maestro PATH --out-dir DIR
 *   perfbench_driver --self-test
 *
 * With --trace 0 the result carries the end-to-end metrics; with
 * --trace 1 it carries the per-layer metrics of a separate traced run.
 * Human-readable lines (seed, hw_threads, sample counts, any failure)
 * come first; the last stdout line is the result object. A full record
 * and, when traced, every span are written under --out-dir. The exit
 * status is nonzero when any output check or mechanism guard failed.
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench.hh"

namespace
{

using namespace perfbench;

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"cpu_ms_per_op", "ms"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"process.version_ms", "ms"},
    {"process.unattributed_ms", "ms"},
    {"model.zoo_ms", "ms"},
    {"frontend.parse_us", "us"},
    {"core.analyze_us", "us"},
    {"core.evaluations", "count"},
    {"core.stage_hit_ratio.tensor", "ratio"},
    {"core.stage_hit_ratio.binding", "ratio"},
    {"core.stage_hit_ratio.flat", "ratio"},
    {"core.stage_hit_ratio.layer", "ratio"},
    {"dse.explore_ms", "ms"},
    {"dse.points", "count"},
    {"dse.valid_points", "count"},
    {"dse.points_per_s", "1/s"},
    {"mapper.map_ms", "ms"},
    {"mapper.covered", "count"},
    {"mapper.evaluated", "count"},
    {"mapper.covered_per_evaluated", "ratio"},
    {"mapper.mappings_per_s", "1/s"},
    {"sim.simulate_us", "us"},
    {"sim.crossval_ms", "ms"},
    {"sim.nest_steps", "count"},
    {"sim.step_classes", "count"},
    {"sim.steps_per_class", "ratio"},
    {"sim.triples_per_s", "1/s"},
    {"sim.cycle_err_mean_pct", "%"},
    {"sim.cycle_err_over25_pct", "%"},
    {"sim.l2_supply_err_mean_pct", "%"},
    {"serve.handler_us", "us"},
    {"serve.overhead_us", "us"},
    {"serve.queue_wait_us", "us"},
    {"serve.run_us", "us"},
    {"serve.result_cache_hit_ratio", "ratio"},
    {"serve.result_cache_evictions", "count"},
    {"serve.rejected", "count"},
    {"obs.metrics_scrape_us", "us"},
    {"obs.stats_scrape_us", "us"},
    {"obs.metrics_bytes", "bytes"},
    {"common.render_us", "us"},
    {"bench.trace_overhead_pct", "%"},
    {"ledger.whole_us", "us"},
    {"ledger.process_us", "us"},
    {"ledger.model_us", "us"},
    {"ledger.frontend_us", "us"},
    {"ledger.core_us", "us"},
    {"ledger.dse_us", "us"},
    {"ledger.mapper_us", "us"},
    {"ledger.sim_us", "us"},
    {"ledger.serve_us", "us"},
    {"ledger.obs_us", "us"},
    {"ledger.common_us", "us"},
    {"ledger.unattributed_us", "us"},
};

/** Shortest round-trip decimal form of `v`: every digit measured. */
std::string
number(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c >= ' ' ? c : ' ';
    }
    return out + "\"";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "cli_cold|serve_cold|serve_hot|search --seed N "
                 "--seconds S --trace 0|1 --maestro PATH --out-dir DIR\n"
                 "       perfbench_driver --self-test\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    bool self_test_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--self-test") {
            self_test_only = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        if (key == "--workload")
            options.workload = value;
        else if (key == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            options.seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--trace")
            options.trace = value == "1";
        else if (key == "--maestro")
            options.maestro = value;
        else if (key == "--out-dir")
            options.out_dir = value;
        else
            return usage();
    }
    options.hw_threads = std::max(1u, std::thread::hardware_concurrency());

    std::vector<std::string> test_problems;
    const bool tests_ok = selfTest(test_problems);
    if (self_test_only) {
        for (const std::string &p : test_problems)
            std::printf("self-test FAILED: %s\n", p.c_str());
        std::printf("self-test %s\n", tests_ok ? "ok" : "FAILED");
        return tests_ok ? 0 : 1;
    }

    RunResult (*run)(const Options &) = nullptr;
    if (options.workload == "cli_cold")
        run = runCliCold;
    else if (options.workload == "serve_cold")
        run = runServeCold;
    else if (options.workload == "serve_hot")
        run = runServeHot;
    else if (options.workload == "search")
        run = runSearch;
    if (!run || options.maestro.empty() || options.out_dir.empty() ||
        !(options.seconds > 0.0))
        return usage();

    RunResult result = run(options);
    for (const std::string &p : test_problems)
        result.fail("self-test: " + p);
    if (result.attempted == 0)
        result.fail("no operation was attempted");

    std::printf("perfbench workload=%s seed=%llu seconds=%s trace=%d "
                "hw_threads=%u\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                number(options.seconds).c_str(), options.trace ? 1 : 0,
                options.hw_threads);
    for (const auto &[name, value] : result.counts)
        std::printf("  count %-28s %s\n", name.c_str(),
                    number(value).c_str());

    std::string metrics;
    const auto emit = [&](const MetricDef &def) {
        const auto it = result.values.find(def.name);
        double value = it == result.values.end() ? 0.0 : it->second;
        if (!std::isfinite(value)) {
            result.fail(std::string("metric ") + def.name +
                        " is not finite");
            value = 0.0;
        }
        std::printf("  metric %-30s %s %s\n", def.name,
                    number(value).c_str(), def.unit);
        metrics += (metrics.empty() ? "" : ", ") + quoted(def.name) +
                   ": {\"value\": " + number(value) +
                   ", \"unit\": " + quoted(def.unit) + "}";
    };
    if (options.trace) {
        for (const MetricDef &def : kPerLayer)
            emit(def);
    } else {
        for (const MetricDef &def : kEndToEnd)
            emit(def);
    }

    const std::string stem = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             "-trace" + (options.trace ? "1" : "0");
    if (options.trace && !result.spans.write(stem + "-spans.json"))
        result.fail("could not write the span file");
    for (const std::string &p : result.problems)
        std::printf("  FAILED: %s\n", p.c_str());

    const std::string line =
        std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(result.attempted) +
        ", \"failed\": " + std::to_string(result.failed) +
        ", \"metrics\": {" + metrics + "}}";
    std::ofstream record(stem + ".json", std::ios::binary);
    record << "{\"workload\": " << quoted(options.workload)
           << ", \"seed\": " << options.seed
           << ", \"seconds\": " << number(options.seconds)
           << ", \"trace\": " << (options.trace ? 1 : 0)
           << ", \"hw_threads\": " << options.hw_threads
           << ", \"result\": " << line << "}\n";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 1;
}
