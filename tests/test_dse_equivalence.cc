/**
 * @file
 * Exact-vs-fast DSE equivalence property tests.
 *
 * The fast sweep (closed-form interior selection, sharded pairs) must
 * be byte-identical to the exact grid walk in its best points, point
 * accounting, and Pareto frontier, for any thread count — these tests
 * drive both strategies over randomized design spaces, layers, and
 * budgets and compare every field with EXPECT_EQ (no tolerances).
 * Every point either strategy reports must also carry exactly the area
 * and power AreaPowerModel gives its configuration.
 *
 * Also: an O(n^2) reference check and insertion-order invariance for
 * the streaming ParetoAccumulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "src/common/error.hh"
#include "src/dataflows/catalog.hh"
#include "src/dse/explorer.hh"
#include "src/dse/pareto.hh"
#include "src/model/zoo.hh"

namespace maestro
{
namespace
{

void
expectSamePoint(const dse::DesignPoint &exact,
                const dse::DesignPoint &fast, const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(exact.valid, fast.valid);
    if (!exact.valid || !fast.valid)
        return;
    EXPECT_EQ(exact.num_pes, fast.num_pes);
    EXPECT_EQ(exact.l1_bytes, fast.l1_bytes);
    EXPECT_EQ(exact.l2_bytes, fast.l2_bytes);
    EXPECT_EQ(exact.noc_bandwidth, fast.noc_bandwidth);
    EXPECT_EQ(exact.area, fast.area);
    EXPECT_EQ(exact.power, fast.power);
    EXPECT_EQ(exact.runtime, fast.runtime);
    EXPECT_EQ(exact.throughput, fast.throughput);
    EXPECT_EQ(exact.energy, fast.energy);
    EXPECT_EQ(exact.edp, fast.edp);
    EXPECT_EQ(exact.l1_required, fast.l1_required);
    EXPECT_EQ(exact.l2_required, fast.l2_required);
}

void
expectEquivalent(const dse::DseResult &exact, const dse::DseResult &fast)
{
    EXPECT_EQ(exact.explored_points, fast.explored_points);
    EXPECT_EQ(exact.evaluated_points, fast.evaluated_points);
    EXPECT_EQ(exact.valid_points, fast.valid_points);
    EXPECT_EQ(exact.evaluated_pairs, fast.evaluated_pairs);
    expectSamePoint(exact.best_throughput, fast.best_throughput,
                    "best_throughput");
    expectSamePoint(exact.best_energy, fast.best_energy, "best_energy");
    expectSamePoint(exact.best_edp, fast.best_edp, "best_edp");
    EXPECT_EQ(exact.frontier_size, fast.frontier_size);
    ASSERT_EQ(exact.pareto.size(), fast.pareto.size());
    for (std::size_t i = 0; i < exact.pareto.size(); ++i) {
        expectSamePoint(exact.pareto[i], fast.pareto[i], "pareto");
        EXPECT_TRUE(exact.pareto[i].valid);
    }
}

/**
 * Every point a sweep reports (bests, Pareto points, samples) has
 * exactly the area and power AreaPowerModel gives its configuration.
 */
void
expectModelPriced(const dse::DseResult &result,
                  const AcceleratorConfig &base)
{
    const AreaPowerModel model;
    const auto check = [&](const dse::DesignPoint &p, const char *what) {
        if (!p.valid)
            return;
        AcceleratorConfig cfg = base;
        cfg.num_pes = p.num_pes;
        cfg.l1_bytes = p.l1_bytes;
        cfg.l2_bytes = p.l2_bytes;
        cfg.noc = NocModel(p.noc_bandwidth, base.noc.avgLatency());
        EXPECT_EQ(p.area, model.area(cfg)) << what;
        EXPECT_EQ(p.power, model.power(cfg)) << what;
    };
    check(result.best_throughput, "best_throughput");
    check(result.best_energy, "best_energy");
    check(result.best_edp, "best_edp");
    for (const dse::DesignPoint &p : result.pareto)
        check(p, "pareto");
    for (const dse::DesignPoint &p : result.samples)
        check(p, "sample");
}

/** Draws a sorted design space (a few hundred to ~20K points) from
 *  the generator; may include duplicate entries and fractional
 *  bandwidths. */
dse::DesignSpace
randomSpace(std::mt19937 &rng)
{
    auto draw = [&](auto values, std::size_t lo, std::size_t hi) {
        std::uniform_int_distribution<std::size_t> count_dist(lo, hi);
        std::shuffle(values.begin(), values.end(), rng);
        values.resize(count_dist(rng));
        std::sort(values.begin(), values.end());
        return values;
    };
    dse::DesignSpace space;
    space.pe_counts = draw(
        std::vector<Count>{8, 16, 32, 64, 96, 128, 192, 256, 384, 512},
        1, 5);
    space.l1_sizes = draw(
        std::vector<Count>{64, 128, 256, 512, 1024, 2048, 4096, 8192},
        1, 6);
    space.l2_sizes =
        draw(std::vector<Count>{16384, 65536, 262144, 524288, 1048576,
                                2097152, 4194304},
             1, 6);
    space.noc_bandwidths = draw(
        std::vector<double>{0.5, 1.0, 1.5, 2.0, 4.0, 7.25, 16.0, 64.0},
        1, 5);
    // Occasionally inject a duplicate size to exercise repeated list
    // entries.
    if (space.l2_sizes.size() > 1 && (rng() & 1) != 0)
        space.l2_sizes.push_back(space.l2_sizes.back());
    return space;
}

struct BudgetCase
{
    double area;
    double power;
};

void
runEquivalenceSweep(const Layer &layer, const Dataflow &dataflow,
                    std::uint32_t seed)
{
    std::mt19937 rng(seed);
    const AcceleratorConfig base = AcceleratorConfig::paperStudy();
    const dse::Explorer explorer(base);
    const BudgetCase budgets[] = {
        {0.5, 10.0},     // tight: everything skipped
        {4.0, 120.0},    // partial
        {16.0, 450.0},   // the paper's Eyeriss budget
        {100.0, 5000.0}, // loose: nothing budget-pruned
    };
    for (int round = 0; round < 3; ++round) {
        const dse::DesignSpace space = randomSpace(rng);
        for (const BudgetCase &budget : budgets) {
            dse::DseOptions options;
            options.area_budget_mm2 = budget.area;
            options.power_budget_mw = budget.power;
            options.sample_stride = 7;
            options.max_pareto_points = 64;

            options.exact = true;
            const dse::DseResult exact =
                explorer.explore(layer, dataflow, space, options);

            options.exact = false;
            options.num_threads = 1;
            const dse::DseResult fast1 =
                explorer.explore(layer, dataflow, space, options);
            options.num_threads = 4;
            const dse::DseResult fast4 =
                explorer.explore(layer, dataflow, space, options);

            SCOPED_TRACE(msg("seed=", seed, " round=", round,
                             " area=", budget.area));
            expectEquivalent(exact, fast1);
            expectEquivalent(exact, fast4);
            expectModelPriced(exact, base);
            expectModelPriced(fast1, base);
            expectModelPriced(fast4, base);
        }
    }
}

TEST(DseEquivalence, Vgg16Conv2KcP)
{
    const Network net = zoo::vgg16();
    runEquivalenceSweep(net.layer("CONV2"), dataflows::byName("KC-P"),
                        0xC0FFEE);
}

TEST(DseEquivalence, Vgg16Conv11YrP)
{
    const Network net = zoo::vgg16();
    runEquivalenceSweep(net.layer("CONV11"), dataflows::byName("YR-P"),
                        0xBEEF);
}

TEST(DseEquivalence, DepthwiseGroupedLayer)
{
    // Grouped/depthwise layers exercise the per-group DRAM residency
    // scaling inside energyFromSums.
    const Network net = zoo::mobilenetV2();
    const Layer *depthwise = nullptr;
    for (const Layer &layer : net.layers()) {
        if (layer.type() == OpType::DepthwiseConv) {
            depthwise = &layer;
            break;
        }
    }
    ASSERT_NE(depthwise, nullptr);
    runEquivalenceSweep(*depthwise, dataflows::byName("YX-P"),
                        0xD1CE);
}

TEST(DseEquivalence, SingleElementAxes)
{
    const Network net = zoo::vgg16();
    const Layer &layer = net.layer("CONV2");
    const Dataflow df = dataflows::byName("KC-P");
    const dse::Explorer explorer(AcceleratorConfig::paperStudy());
    dse::DesignSpace space;
    space.pe_counts = {256};
    space.l1_sizes = {2048};
    space.l2_sizes = {1 << 20};
    space.noc_bandwidths = {16.0};
    for (const BudgetCase &budget :
         {BudgetCase{0.5, 10.0}, BudgetCase{100.0, 5000.0}}) {
        dse::DseOptions options;
        options.area_budget_mm2 = budget.area;
        options.power_budget_mw = budget.power;
        options.exact = true;
        const dse::DseResult exact =
            explorer.explore(layer, df, space, options);
        options.exact = false;
        const dse::DseResult fast =
            explorer.explore(layer, df, space, options);
        expectEquivalent(exact, fast);
        EXPECT_EQ(exact.explored_points, 1.0);
    }
}

TEST(DseEquivalence, RejectsUnsortedSpace)
{
    const Network net = zoo::vgg16();
    const Layer &layer = net.layer("CONV2");
    const Dataflow df = dataflows::byName("KC-P");
    const dse::Explorer explorer(AcceleratorConfig::paperStudy());
    dse::DesignSpace space = dse::DesignSpace::small();
    std::swap(space.l1_sizes.front(), space.l1_sizes.back());
    EXPECT_THROW(explorer.explore(layer, df, space, dse::DseOptions()),
                 Error);
}

// ---- ParetoAccumulator unit tests ----

/** O(n^2) reference: p survives iff no other point weakly dominates
 *  it under the accumulator's rule. */
std::vector<dse::FrontierPoint>
referenceFrontier(const std::vector<dse::FrontierPoint> &points)
{
    auto dominates = [](const dse::FrontierPoint &a,
                        const dse::FrontierPoint &b) {
        if (a.maximize < b.maximize || a.minimize > b.minimize)
            return false;
        return a.maximize > b.maximize || a.minimize < b.minimize ||
               a.order < b.order;
    };
    std::vector<dse::FrontierPoint> out;
    for (const auto &p : points) {
        bool dominated = false;
        for (const auto &q : points) {
            if (dominates(q, p)) {
                dominated = true;
                break;
            }
        }
        if (!dominated)
            out.push_back(p);
    }
    std::sort(out.begin(), out.end(),
              [](const dse::FrontierPoint &a,
                 const dse::FrontierPoint &b) {
                  return a.maximize > b.maximize;
              });
    return out;
}

TEST(ParetoAccumulator, MatchesQuadraticReference)
{
    std::mt19937 rng(12345);
    // Small value alphabet on purpose: plenty of exact ties in both
    // objectives, the hard case for dominance bookkeeping.
    std::uniform_int_distribution<int> value(0, 9);
    for (int round = 0; round < 50; ++round) {
        std::vector<dse::FrontierPoint> points;
        const std::size_t n = 1 + (rng() % 60);
        for (std::size_t i = 0; i < n; ++i) {
            points.push_back({static_cast<double>(value(rng)),
                              static_cast<double>(value(rng)),
                              static_cast<std::uint64_t>(i)});
        }
        dse::ParetoAccumulator acc;
        for (const auto &p : points)
            acc.insert(p);
        const auto got = acc.finish(0);
        const auto want = referenceFrontier(points);
        ASSERT_EQ(got.size(), want.size()) << "round " << round;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].maximize, want[i].maximize);
            EXPECT_EQ(got[i].minimize, want[i].minimize);
            EXPECT_EQ(got[i].order, want[i].order);
        }
    }
}

TEST(ParetoAccumulator, InsertionOrderInvariant)
{
    std::mt19937 rng(999);
    std::uniform_int_distribution<int> value(0, 6);
    std::vector<dse::FrontierPoint> points;
    for (std::size_t i = 0; i < 40; ++i) {
        points.push_back({static_cast<double>(value(rng)),
                          static_cast<double>(value(rng)),
                          static_cast<std::uint64_t>(i)});
    }
    dse::ParetoAccumulator forward;
    for (const auto &p : points)
        forward.insert(p);
    const auto want = forward.finish(0);
    for (int round = 0; round < 10; ++round) {
        std::shuffle(points.begin(), points.end(), rng);
        dse::ParetoAccumulator shuffled;
        for (const auto &p : points)
            shuffled.insert(p);
        const auto got = shuffled.finish(0);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].maximize, want[i].maximize);
            EXPECT_EQ(got[i].minimize, want[i].minimize);
            EXPECT_EQ(got[i].order, want[i].order);
        }
    }
}

TEST(ParetoAccumulator, MergeMatchesCombinedInsert)
{
    std::mt19937 rng(4242);
    std::uniform_int_distribution<int> value(0, 8);
    std::vector<dse::FrontierPoint> points;
    for (std::size_t i = 0; i < 50; ++i) {
        points.push_back({static_cast<double>(value(rng)),
                          static_cast<double>(value(rng)),
                          static_cast<std::uint64_t>(i)});
    }
    dse::ParetoAccumulator combined, left, right;
    for (std::size_t i = 0; i < points.size(); ++i) {
        combined.insert(points[i]);
        (i % 2 == 0 ? left : right).insert(points[i]);
    }
    left.merge(right);
    const auto got = left.finish(0);
    const auto want = combined.finish(0);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].maximize, want[i].maximize);
        EXPECT_EQ(got[i].minimize, want[i].minimize);
        EXPECT_EQ(got[i].order, want[i].order);
    }
}

TEST(ParetoAccumulator, DecimationKeepsEndpoints)
{
    dse::ParetoAccumulator acc;
    // A strictly descending staircase: every point is on the frontier.
    for (int i = 0; i < 100; ++i) {
        acc.insert({static_cast<double>(100 - i),
                    static_cast<double>(100 - i),
                    static_cast<std::uint64_t>(i)});
    }
    ASSERT_EQ(acc.size(), 100u);
    const auto full = acc.finish(0);
    ASSERT_EQ(full.size(), 100u);
    const auto cut = acc.finish(10);
    ASSERT_EQ(cut.size(), 10u);
    EXPECT_EQ(cut.front().maximize, full.front().maximize);
    EXPECT_EQ(cut.back().maximize, full.back().maximize);
    // Decimated output stays sorted descending and is a subset.
    for (std::size_t i = 1; i < cut.size(); ++i)
        EXPECT_GT(cut[i - 1].maximize, cut[i].maximize);
    const auto one = acc.finish(1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one.front().maximize, full.front().maximize);
}

} // namespace
} // namespace maestro
