/**
 * @file
 * Self-tests of the driver's own machinery, run before every
 * measurement: a driver that generates different inputs for one seed,
 * miscounts a percentile, or oversubscribes the host would report
 * numbers that cannot be compared across runs.
 */

#include <algorithm>
#include <cmath>
#include <set>

#include "bench.hh"

namespace perfbench
{

namespace
{

/** Every request byte of the first `n` of a client's cold stream. */
std::string
coldBytes(std::uint64_t seed, std::size_t client, std::size_t n)
{
    ColdStream stream(seed, client);
    std::string out;
    for (std::size_t i = 0; i < n; ++i)
        out += stream.next().wire();
    return out;
}

std::string
hotBytes(std::uint64_t seed)
{
    const std::vector<Request> set = hotWorkingSet(seed);
    const std::vector<Request> scrapes = hotScrapes();
    std::string out;
    for (std::uint64_t i = 0; i < 64; ++i)
        out += hotRequest(set, scrapes, seed, 1, i).wire();
    return out;
}

std::string
cliBytes(std::uint64_t seed)
{
    std::string out = cliNetworkDsl(seed);
    for (const CliCommand &cmd : cliCommands("net.m"))
        for (const std::string &arg : cmd.args)
            out += arg + '\0';
    return out;
}

/** Brute-force nearest rank: the smallest sample v with at least
 *  p_permille / 1000 of the samples <= v, in exact integer arithmetic. */
double
bruteForcePercentile(const std::vector<double> &values,
                     std::uint64_t p_permille)
{
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (const double v : sorted) {
        std::uint64_t at_or_below = 0;
        for (const double x : values)
            at_or_below += x <= v ? 1 : 0;
        if (at_or_below * 1000 >= p_permille * values.size())
            return v;
    }
    return sorted.back();
}

} // namespace

bool
selfTest(std::vector<std::string> &problems)
{
    const std::size_t before = problems.size();

    // Generators: byte-deterministic per seed, distinct across seeds,
    // and a cold stream never repeats a body.
    for (const std::uint64_t seed : {1ull, 2ull, 977ull}) {
        for (std::size_t client = 0; client < 2; ++client) {
            if (coldBytes(seed, client, 48) != coldBytes(seed, client, 48))
                problems.push_back("cold stream not deterministic");
        }
        if (hotBytes(seed) != hotBytes(seed))
            problems.push_back("hot stream not deterministic");
        if (cliBytes(seed) != cliBytes(seed))
            problems.push_back("cli inputs not deterministic");
        std::set<std::string> bodies;
        std::size_t drawn = 0;
        for (std::size_t client = 0; client < 2; ++client) {
            ColdStream stream(seed, client);
            for (std::size_t i = 0; i < 500; ++i, ++drawn)
                bodies.insert(stream.next().body);
        }
        if (bodies.size() != drawn)
            problems.push_back("cold stream repeated a body");
    }
    if (coldBytes(1, 0, 8) == coldBytes(2, 0, 8) ||
        hotBytes(1) == hotBytes(2) || cliBytes(1) == cliBytes(2))
        problems.push_back("two seeds generated the same inputs");

    // A search round is a permutation of its calls, fixed by the seed.
    bool orders_differ = false;
    for (std::uint64_t round = 0; round < 8; ++round) {
        const std::vector<int> order = searchRound(5, round, 20);
        if (order != searchRound(5, round, 20))
            problems.push_back("search order not deterministic");
        if (std::count(order.begin(), order.end(), 0) != 20 ||
            std::count(order.begin(), order.end(), 1) != 1 ||
            std::count(order.begin(), order.end(), 2) != 1 ||
            order.size() != 22)
            problems.push_back("search round is not a permutation");
        orders_differ = orders_differ || order != searchRound(6, round, 20);
    }
    if (!orders_differ)
        problems.push_back("two seeds ordered every search round alike");

    // Window statistics on a run whose window w (100 operations of 25
    // four-operation cycles) takes w + 1 ms an operation; the three
    // trailing operations form no cycle and join no window.
    {
        std::vector<Sample> samples;
        double t = 0.0;
        for (std::size_t i = 0; i < 1003; ++i) {
            const double ms = 1.0 + static_cast<double>(i / 100);
            t += ms / 1e3;
            samples.push_back({t, ms, true});
        }
        const WindowStats w = windowStats(samples, 4, 10, 3);
        const auto near = [](double a, double b) {
            return std::abs(a - b) <= 1e-9 * std::abs(b);
        };
        // The three fastest windows pool 1, 2 and 3 ms operations: 300
        // in 0.6 s. All ten pool 1000 in 5.5 s.
        if (w.windows != 10 || w.samples != 300 || w.p50_ms != 2.0 ||
            w.p99_ms != 3.0 || !near(w.ops_per_s, 500.0) ||
            w.all_p50_ms != 5.0 || w.all_p99_ms != 10.0 ||
            !near(w.all_ops_per_s, 1000.0 / 5.5))
            problems.push_back("window statistics disagree with the "
                               "direct computation");
    }

    // Percentiles and sample counts against the brute-force reference,
    // with ties and small samples.
    Rng rng(12345);
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<double> values(1 + rng.below(257));
        const std::uint64_t spread = 1 + rng.below(64);
        for (double &v : values)
            v = static_cast<double>(rng.below(spread)) * 0.25;
        for (const std::uint64_t permille : {10ull, 250ull, 500ull, 900ull,
                                             990ull, 999ull, 1000ull}) {
            const double p = static_cast<double>(permille) / 10.0;
            const double want = bruteForcePercentile(values, permille);
            if (percentile(values, p) != want) {
                problems.push_back("percentile p" + std::to_string(p) +
                                   " disagrees with brute force");
                break;
            }
            const auto above = static_cast<std::size_t>(std::count_if(
                values.begin(), values.end(),
                [want](double v) { return v > want; }));
            if (samplesAbove(values, p) != above) {
                problems.push_back("sample count above p" +
                                   std::to_string(p) + " is wrong");
                break;
            }
        }
    }

    // The load generator never runs more clients (each holding one
    // connection) than the host has hardware threads.
    for (unsigned hw = 1; hw <= 16; ++hw) {
        for (std::size_t wanted = 1; wanted <= 16; ++wanted) {
            const std::size_t n = clientCount(wanted, hw);
            if (n < 1 || n > hw || n > wanted)
                problems.push_back("client count exceeds nproc");
        }
    }
    return problems.size() == before;
}

} // namespace perfbench
